# six leaves around a hub
p hs 7 6
t majority
e 1 7
e 2 7
e 3 7
e 4 7
e 5 7
e 6 7
