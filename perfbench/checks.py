"""Output checks that share no code with the functions being measured.

The round trip is checked by re-reading the written net with a parser of
our own, exploring it with gen.rzpt_graph and matching the result against
the generated input graph.  The ppt essp witness of the hardness workload
is checked by recomputing its atoms and their coverage from the union's
members with an own token-step function.
"""

from __future__ import annotations

from collections import deque

import gen


def read_rzpt_net(text: str):
    """(bound, marking, transitions, flow) of an rzpt .net document.

    Omitted flows are the neutral group g:0, as in the package's format.
    """
    bound = None
    marking, transitions, flow = [], [], {}
    for line in text.splitlines():
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        head = tokens[0]
        if head == ".family" and tokens[1] != "rzpt":
            raise ValueError(f"not an rzpt net: {tokens[1]}")
        if head == ".bound":
            bound = int(tokens[1])
        elif head == ".place":
            marking.append((tokens[1], int(tokens[2])))
        elif head == ".transition":
            transitions.append(tokens[1])
        elif head == ".flow":
            event = tokens[3]
            if event.startswith("g:"):
                flow[(tokens[1], tokens[2])] = ("g", int(event[2:]))
            else:
                m, n = event.split(",")
                flow[(tokens[1], tokens[2])] = ("p", int(m), int(n))
    for p, _ in marking:
        for t in transitions:
            flow.setdefault((p, t), ("g", 0))
    return bound, marking, transitions, flow


def isomorphic(left, right) -> bool:
    """Whether two deterministic graphs (states, initial, arcs), all states
    reachable, are equal up to renaming states with the initial ones matched."""
    l_states, l_init, l_arcs = left
    r_states, r_init, r_arcs = right
    if len(l_states) != len(r_states) or len(l_arcs) != len(r_arcs):
        return False
    l_out, r_out = _out(l_arcs), _out(r_arcs)
    mapping = {l_init: r_init}
    taken = {r_init}
    queue = deque([l_init])
    while queue:
        x = queue.popleft()
        x_out, y_out = l_out.get(x, {}), r_out.get(mapping[x], {})
        if x_out.keys() != y_out.keys():
            return False
        for event, x2 in x_out.items():
            y2 = y_out[event]
            if x2 in mapping:
                if mapping[x2] != y2:
                    return False
            elif y2 in taken:
                return False
            else:
                mapping[x2] = y2
                taken.add(y2)
                queue.append(x2)
    return len(mapping) == len(l_states)


def _out(arcs) -> dict:
    out: dict = {}
    for src, event, dst in arcs:
        out.setdefault(src, {})[event] = dst
    return out


def net_matches(net_text: str, graph) -> bool:
    """Whether the rzpt net's reachability graph is isomorphic to graph."""
    bound, marking, transitions, flow = read_rzpt_net(net_text)
    return isomorphic(gen.rzpt_graph(marking, transitions, flow, bound), graph)


def _ppt_step(bound: int, tokens: int, pair) -> int | None:
    m, n = pair
    after = tokens - m + n
    return after if tokens >= m and after <= bound else None


def ppt_witness_covers(members, bound: int, regions) -> bool:
    """Whether the regions are pure (every pair has m = 0 or n = 0) regions
    of the union and together disable every event at every member state
    lacking it.

    members are (states, arcs) per gadget; each region is (sup, sig) with
    sig mapping every union event to a pair (m, n).
    """
    events = {e for _, arcs in members for _, e, _ in arcs}
    for sup, sig in regions:
        if any(not 0 <= v <= bound for v in sup.values()):
            return False
        if any(m and n or not (0 <= m <= bound and 0 <= n <= bound) for m, n in sig.values()):
            return False
        for _, arcs in members:
            for src, event, dst in arcs:
                if _ppt_step(bound, sup[src], sig[event]) != sup[dst]:
                    return False
    for states, arcs in members:
        enabled = {(src, event) for src, event, _ in arcs}
        for event in events:
            for state in states:
                if (state, event) in enabled:
                    continue
                if not any(
                    _ppt_step(bound, sup[state], sig[event]) is None
                    for sup, sig in regions
                ):
                    return False
    return True
