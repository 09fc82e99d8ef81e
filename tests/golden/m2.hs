p hs 4 2
t majority
e 1 2
e 3 4
