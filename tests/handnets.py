"""Hand-crafted networks with fully worked-out walk behavior.

Each builder returns a Network whose adjacency was designed up front; the
companion tests assert the engine reproduces the intended traces node by
node. Coordinates were chosen so that every intended edge sits clearly
inside the radius and every unintended one clearly outside (margin at least
0.004 around r), so float noise cannot flip the structure.
"""

import numpy as np

from drw_overlay.geom_graph import network_from_positions

# --- fan: cost-guided choice among five scored candidates -----------------
#
# Walk 0 starts at x (0) and is steered to y (1). From y the unvisited
# neighbors include the scored fan a,b,c,d,z (2..6). After the first step
# the marked set is N(x) = {y, m1..m6}, so each fan node's cost counts y
# plus its designated mark contacts:
#   a: y + m1 + m2 -> 3      b: y + m5 -> 2
#   c: y + m3 + m4 -> 3      d: y + m6 -> 2
#   z: y alone     -> 1      (stray mark candidates score 2: y + mark pair)
# z wins uniquely, then walk 0 meets walk 1's corridor u-u2-u3 (13,14,15)
# at u3, the sole shared neighbor of z.

FAN_R = 0.25
FAN_POSITIONS = [
    (0.3421, 0.5104),  # 0  x
    (0.5644, 0.5577),  # 1  y
    (0.5947, 0.6664),  # 2  a
    (0.6467, 0.4930),  # 3  b
    (0.5508, 0.7867),  # 4  c
    (0.6662, 0.3528),  # 5  d
    (0.7103, 0.3895),  # 6  z
    (0.3871, 0.5674),  # 7  m1
    (0.3870, 0.5676),  # 8  m2
    (0.3305, 0.7240),  # 9  m3
    (0.3296, 0.7261),  # 10 m4
    (0.4189, 0.4614),  # 11 m5
    (0.4387, 0.3205),  # 12 m6
    (0.9761, 0.0213),  # 13 u
    (0.9466, 0.1008),  # 14 u2
    (0.8187, 0.2918),  # 15 u3
]
FAN_X = 0
FAN_SCORED = {"a": 2, "b": 3, "c": 4, "d": 5, "z": 6}
FAN_COSTS = {2: 3, 3: 2, 4: 3, 5: 2, 6: 1}
FAN_INITIATORS = (0, 13)


def fan_network():
    return network_from_positions(FAN_POSITIONS, FAN_R)


# --- crossing corridors: forced paths, broker at the junction -------------
#
# Horizontal chain 0-1-2-3-4 and vertical chain 5-6-7 meet through the
# single edge 7-2. Walk 0 from node 0 and walk 1 from node 5 are forced
# down their chains; walk 0's second step sees 7 already recruited and
# takes it as broker. No ties anywhere, so every strategy and seed gives
# the same layer.

CROSS_R = 0.2
CROSS_POSITIONS = [
    (0.10, 0.50),  # 0 a1
    (0.25, 0.50),  # 1 a2
    (0.40, 0.50),  # 2 a3
    (0.55, 0.50),  # 3 a4
    (0.70, 0.50),  # 4 a5
    (0.40, 0.95),  # 5 b1
    (0.40, 0.80),  # 6 b2
    (0.40, 0.65),  # 7 b3
]
CROSS_INITIATORS = (0, 5)


def crossing_network():
    return network_from_positions(CROSS_POSITIONS, CROSS_R)


# --- star: five walks, one hub broker --------------------------------------
#
# Five three-node arms radiate from hub 0; each arm chain is forced. With
# the tips as initiators every walk marches inward and meets at the hub:
# walk 0 recruits it first, walks 1..4 intersect there. Arm spacing was
# picked so no cross-arm edges appear (closest cross pair 0.176 > r).

STAR_R = 0.162
STAR_ARMS = 5


def _star_positions():
    pts = [(0.5, 0.5)]
    for k in range(STAR_ARMS):
        ang = np.pi / 2 + 2 * np.pi * k / STAR_ARMS
        for radius in (0.45, 0.30, 0.15):
            pts.append((0.5 + radius * np.cos(ang), 0.5 + radius * np.sin(ang)))
    return pts


STAR_POSITIONS = _star_positions()
STAR_TIPS = tuple(1 + 3 * k for k in range(STAR_ARMS))


def star_network():
    return network_from_positions(STAR_POSITIONS, STAR_R)


# --- pocket: dead end forcing one backtrack --------------------------------
#
# Chain 0-1-2-3 with a dead-end pocket 4 (only neighbor: 3) and a bypass 5
# adjacent to both 2 and 3, continuing 5-6-7. At node 3 the costs are
# pocket=1 vs bypass=2, so a guided walk enters the pocket, backtracks
# once, then leaves through the bypass and meets whatever holds node 7.

POCKET_R = 0.2
POCKET_POSITIONS = [
    (0.10, 0.50),    # 0 start
    (0.25, 0.50),    # 1
    (0.40, 0.50),    # 2
    (0.55, 0.50),    # 3
    (0.70, 0.50),    # 4 pocket (dead end)
    (0.475, 0.36),   # 5 bypass, adjacent to 2 and 3
    (0.475, 0.175),  # 6
    (0.475, 0.01),   # 7 terminal, pre-registered to a foreign walk
]


def pocket_network():
    return network_from_positions(POCKET_POSITIONS, POCKET_R)


# Every builder above, for properties that sample whole networks.
BUILDERS = (fan_network, crossing_network, star_network, pocket_network)
