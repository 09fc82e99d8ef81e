p hs 3 3
t majority
e 1 2
e 2 3
e 2 1
