p hs 3 2
t 1 1
t 2 2
t 3 1
e 1 2
e 2 3
