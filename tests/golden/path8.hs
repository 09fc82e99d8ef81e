p hs 8 7
t 1 1
t 2 2
t 3 2
t 4 1
t 5 2
t 6 2
t 7 2
t 8 1
e 1 2
e 2 3
e 3 4
e 4 5
e 5 6
e 6 7
e 7 8
