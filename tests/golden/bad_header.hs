p hs 3
t majority
