#!/usr/bin/env python3
"""Step through the constraint automaton accepting and rejecting outputs.

Usage:
    python3 demos/02_constraint_checking.py
"""

from treegen import check_tree, first_rejection, parse_mr, weather_ontology
from treegen.constraints import (
    advance,
    build_constraints,
    initial_states,
    valid_structural_tokens,
)

ontology = weather_ontology()

MR = (
    "[CONTRAST [INFORM [condition_not snow ] [date_time [colloquial tomorrow ] ] ] "
    "[INFORM [condition rain ] [date_time [colloquial tomorrow ] ] ] ]"
)
mr = parse_mr(MR, ontology)
tracker = build_constraints(mr)

print("Input MR:")
print(" ", MR)

print("\nSame-value groups found in the MR (node id -> interchangeable ids):")
for i, options in enumerate(tracker.ellipsis_options):
    if len(options) > 1:
        print(f"  {i} ({tracker.nodes[i].label}) -> {sorted(options)}")
print("Either date_time can stand in for both, which licenses ellipsis.")

GOOD = (
    "[CONTRAST [INFORM no [condition_not snow ] is expected ] , but "
    "[INFORM [date_time [colloquial tomorrow ] ] will bring [condition rain ] ] ]"
)
print("\nA response that elides the first date passes:")
print(" ", GOOD)
print("  accepted:", check_tree(mr, GOOD.split()))

BAD = (
    "[CONTRAST [INFORM no [condition_not snow ] is expected ] , but "
    "[INFORM [temp 70 ] and [condition rain ] ] ]"
)
print("\nA response that hallucinates a temperature is rejected:")
print(" ", BAD)
tokens = BAD.split()
pos = first_rejection(mr, tokens)
print(f"  rejected at token {pos}: {tokens[pos]!r}")

print("\nWalking the automaton token by token shows the legal structural")
print("moves shrink as coverage grows.  One query per state set answers")
print("both: idle is the fewest tokens that finish the states as they are,")
print("and each move's cost is the fewest that must still follow it:")
states = initial_states(tracker)
for token in GOOD.split()[:8]:
    idle, moves = valid_structural_tokens(tracker, states)
    costs = {move: cost for move, (_, cost) in sorted(moves.items())}
    print(f"  idle {idle}, next legal: {costs}")
    print(f"  consume {token!r}")
    states = advance(tracker, states, token)
print(f"  alignment states alive: {len(states)}")
