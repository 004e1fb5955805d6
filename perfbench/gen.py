"""Seeded input generators for the benchmark.

Everything here is plain Python data (tuples, dicts, strings) and imports
nothing from petrisynth, so the inputs do not move when the package or its
tests change.  Flow events are tuples: ("g", k) adds k modulo b+1, and
("p", m, n) is an rzpt pair that fires only at token count m and leaves n.
"""

from __future__ import annotations

import random
from collections import deque


def rzpt_net(rng: random.Random, places: int, bound: int, pair_frac: float):
    """Group-heavy rzpt net whose reachability graph holds all (b+1)^places
    markings and fires every transition.

    There are places + 1 transitions; transition i adds 1 to place i, so
    the group part alone reaches every marking.  round(pair_frac * flows)
    flows, each in a different transition where possible, are pairs
    (m, n) != (0, 0); the rest are random groups g:k.  Fixing the pair
    count keeps the arc count steady across seeds.  Draws that fall short
    of full reachability (pairs can block) are redrawn from the same stream.
    Returns (marking, transitions, flow, graph) with graph from rzpt_graph.
    """
    names = [f"p{i}" for i in range(places)]
    transitions = [f"t{i}" for i in range(places + 1)]
    pairs = round(pair_frac * places * len(transitions))
    while True:
        flow = {}
        for p_index, p in enumerate(names):
            for t_index, t in enumerate(transitions):
                k = 1 if t_index == p_index else rng.randint(0, bound)
                flow[(p, t)] = ("g", k)
        owners = rng.sample(range(len(transitions)), len(transitions))
        for i in range(pairs):
            t_index = owners[i % len(owners)]
            p_index = rng.choice([j for j in range(places) if j != t_index])
            m, n = 0, 0
            while (m, n) == (0, 0):
                m, n = rng.randint(0, bound), rng.randint(0, bound)
            flow[(names[p_index], transitions[t_index])] = ("p", m, n)
        marking = [(p, rng.randint(0, bound)) for p in names]
        graph = rzpt_graph(marking, transitions, flow, bound)
        fired = {e for _, e, _ in graph[2]}
        if len(graph[0]) == (bound + 1) ** places and len(fired) == len(transitions):
            return marking, transitions, flow, graph


def step(bound: int, tokens: int, event) -> int | None:
    """Token count after one rzpt flow event, or None when it cannot fire."""
    if event[0] == "g":
        return (tokens + event[1]) % (bound + 1)
    return event[2] if tokens == event[1] else None


def rzpt_graph(marking, transitions, flow, bound: int):
    """Breadth-first reachability graph (states, initial, arcs) of an rzpt
    net given as initial marking [(place, tokens)], transitions and flow.
    States are named by their token digits."""
    places = [p for p, _ in marking]
    start = tuple(m for _, m in marking)
    seen = {start}
    queue = deque([start])
    order = [start]
    arcs = []
    while queue:
        current = queue.popleft()
        for t in transitions:
            after = []
            for p, tokens in zip(places, current):
                nxt = step(bound, tokens, flow[(p, t)])
                if nxt is None:
                    break
                after.append(nxt)
            else:
                after = tuple(after)
                if after not in seen:
                    seen.add(after)
                    order.append(after)
                    queue.append(after)
                arcs.append((_name(current), t, _name(after)))
    return [_name(m) for m in order], _name(start), arcs


def _name(marking) -> str:
    return "m" + "".join(str(v) for v in marking)


def random_ts(rng: random.Random, states: int, events: int):
    """Reachable deterministic TS as (states, events, arcs, initial).

    A random spanning tree rooted at s0 makes every state reachable; about
    one extra arc per state adds chords (cycles).  Every event is used.
    """
    names = [f"s{i}" for i in range(states)]
    labels = [chr(ord("a") + i) for i in range(events)]
    used: set[tuple[str, str]] = set()
    arcs = []
    for i in range(1, states):
        free = [(s, e) for s in names[:i] for e in labels if (s, e) not in used]
        src, event = rng.choice(free)
        used.add((src, event))
        arcs.append((src, event, names[i]))
    for _ in range(rng.randint(states // 2, states)):
        free = [(s, e) for s in names for e in labels if (s, e) not in used]
        if not free:
            break
        src, event = rng.choice(free)
        used.add((src, event))
        arcs.append((src, event, rng.choice(names)))
    for event in labels:
        if not any(e == event for _, e, _ in arcs):
            src = rng.choice([s for s in names if (s, event) not in used])
            used.add((src, event))
            arcs.append((src, event, rng.choice(names)))
    return names, labels, arcs, names[0]


def planted_formula(rng: random.Random, m: int):
    """Cubic monotone one-in-three formula with a planted model.

    m must be a multiple of 3.  A third of the variables form the model;
    each clause takes one model variable and two others, so every clause is
    hit exactly once and every variable occurs exactly three times.
    Returns (clauses, model) with clauses as sorted triples.
    """
    if m % 3:
        raise ValueError(f"clause count must be a multiple of 3, got {m}")
    variables = list(range(m))
    rng.shuffle(variables)
    model, rest = variables[: m // 3], variables[m // 3 :]
    while True:
        heads = model * 3
        tails = rest * 3
        rng.shuffle(heads)
        rng.shuffle(tails)
        clauses = [
            tuple(sorted((heads[i], tails[2 * i], tails[2 * i + 1])))
            for i in range(m)
        ]
        if all(len(set(c)) == 3 for c in clauses):
            return tuple(clauses), frozenset(model)


def ts_text(name: str, states, events, arcs, initial) -> str:
    """The .ts document of a TS, with declarations, in the package's format."""
    out = [f".ts {name}"]
    out.extend(f".state {s}" for s in states)
    out.extend(f".event {e}" for e in events)
    out.append(f".initial {initial}")
    out.extend(f".arc {s} {e} {t}" for s, e, t in arcs)
    return "\n".join(out) + "\n"
