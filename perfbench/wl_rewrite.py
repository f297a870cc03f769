"""rewrite: reduction graphs, normalization and permutation classes.

Graph items are encoded call-by-value programs and translations of typed
lambda-terms.  Per graph item: the full beta reduction graph, its
confluence, its depth, and normalization under both strategies.  Per
permutation item (a well-typed term over two or three locations): its
permutation class.

Graph and class sizes are heavy-tailed, so a plain random draw would make
a round's cost depend on the seed.  Set-up therefore screens candidates
with the same node bound the timed phase uses and keeps a fixed number of
items per size band.  Every seed then yields rounds of nearly the same
size profile, and no graph or class in the timed phase exceeds its bound.
"""

from __future__ import annotations

import random

import harness

NODE_BOUND = 63
# Items wanted per size band.  The size of an item is the summed size of
# the terms in its reduction graph (or permutation class), which tracks its
# cost far better than the node count; band b holds sizes in [2^b, 2^(b+1)).
# Terms already in normal form and classes of one term are left out, so
# every item does rewriting work.  The counts follow how often each band
# turns up in a random draw, so that a couple of hundred candidates fill
# them all.
BAND_COUNTS = {"cbv": {5: 4, 6: 10, 7: 12, 8: 10, 9: 8},
               "lambda": {4: 30, 5: 6, 6: 8, 7: 3, 8: 5, 9: 2},
               "perm": {3: 50, 4: 50, 5: 30, 6: 12, 7: 6, 8: 3, 9: 1}}
# The heaviest items (sizes 1024..2047, about 2% of a round) are drawn from
# a stream that does not depend on the seed: they set the 99th percentile,
# which would otherwise follow the luck of a handful of draws.
PINNED_COUNTS = {"cbv": {10: 4}, "lambda": {10: 2}}
PINNED_STREAM = 0
LAMBDA_MAX_SIZE = 8
PERM_LOCS = (("a",), ("a", "b"))
BATCH = 20
MAX_BATCHES = 120
MAX_PERM_CANDIDATES = 20000


def build(L, seed: int, rec):
    R, T, B = L.reduction, L.typesys, L.bridge
    rng = random.Random(seed)
    items = []

    def weight(terms) -> int:
        return sum(L.syntax.size(t) for t in terms)

    def graph_weight(term):
        """Summed term size of the reduction graph; None for a term already
        in normal form or one whose graph exceeds the bound."""
        try:
            nodes = R.reduction_graph(term, node_bound=NODE_BOUND).nodes
        except R.BoundExceeded:
            return None
        return weight(nodes.values()) if len(nodes) > 1 else None

    def candidates(source, stream):
        """(term, its type if it has one) pairs; the type is computed lazily."""
        if source == "cbv":
            for prog in L.gen.random_cbv(stream, BATCH):
                yield B.encode_cbv(prog), lambda term: T.infer({}, term).instantiate_minimal()
        else:
            for lam, lty in L.gen.random_lambda_corpus(stream, BATCH, max_size=LAMBDA_MAX_SIZE):
                vec = T.Vector(B.lambda_type_vector(lty))
                yield B.lambda_to_fmc(lam, [], lty), lambda _: T.Arrow(T.mem({}), T.mem({L.syntax.MAIN: vec}))

    def fill(source, stream, counts):
        bands = harness.Quotas(counts, per_octave=1)
        for batch in range(MAX_BATCHES):
            for term, typing in candidates(source, stream * 1000 + batch):
                if bands.full():
                    return
                w = graph_weight(term)
                if w is None or not bands.wants(w):
                    continue
                bands.take(w)
                try:
                    ty = typing(term)
                except T.TypeCheckError:
                    ty = None
                items.append(("graph", source, term, {"type": ty}))

    for source in ("cbv", "lambda"):
        fill(source, seed, BAND_COUNTS[source])
        fill(source, PINNED_STREAM, PINNED_COUNTS[source])

    bands = harness.Quotas(BAND_COUNTS["perm"], per_octave=1)
    locs_by_count = [(L.syntax.MAIN,) + tuple(L.syntax.Location(x) for x in extra)
                     for extra in PERM_LOCS]
    for _ in range(MAX_PERM_CANDIDATES):
        if bands.full():
            break
        locs = rng.choice(locs_by_count)
        term = L.gen.random_term(rng, rng.randint(6, 22), (), locs)
        if len(L.syntax.locations_of(term)) < 2:
            continue
        try:
            members = R.perm_class(term, bound=NODE_BOUND)
        except R.BoundExceeded:
            continue
        w = weight(members.values())
        if len(members) < 2 or not bands.wants(w):
            continue
        try:
            T.infer({}, term)
        except T.TypeCheckError:
            continue
        bands.take(w)
        items.append(("perm", "perm", term, {"members": len(members), "pick": rng.random()}))

    rng.shuffle(items)
    return {"items": items, "depths": {}}


def run_round(L, inputs, rec, round_no: int):
    R, S = L.reduction, L.syntax
    depths = inputs["depths"]
    for index, (family, kind, term, facts) in enumerate(inputs["items"]):
        if family == "graph":
            def work(term=term):
                g = R.reduction_graph(term, node_bound=NODE_BOUND)
                L.count("reduction.nodes", len(g.nodes))
                confluent = R.confluent_on(g)
                depth = L.call("reduction.depth", g.depth)
                lo = R.normalize(term, strategy="leftmost-outermost")
                ri = R.normalize(term, strategy="rightmost-innermost")
                return (g, confluent, depth, lo, ri), lo.steps + ri.steps

            def check(out, index=index, term=term, facts=facts):
                g, confluent, depth, lo, ri = out
                normal = [k for k, succ in g.edges.items() if not succ]
                if len(normal) != 1 or not confluent:
                    rec.wrong(f"graph of {L.parser.print_term(term)}: {len(normal)} normal forms")
                    return
                nf = g.nodes[normal[0]]
                for res in (lo, ri):
                    if (res.status != "normal" or not S.alpha_eq(res.term, nf)
                            or S.canonical_key(res.term) != normal[0]):
                        rec.wrong(f"normalize of {L.parser.print_term(term)} reached "
                                  f"{L.parser.print_term(res.term)} ({res.status})")
                if index not in depths:
                    # strong normalization: no path is longer than the root's measure
                    bound = (L.measure.measure(L.typesys.check_infer({}, term, facts["type"]))
                             if facts["type"] is not None else depth)
                    depths[index] = depth
                    if depth > bound:
                        rec.wrong(f"depth {depth} above measure {bound} for {L.parser.print_term(term)}")
                rec.expect(depth == depths[index], f"depth {depth} != {depths[index]} in round 0")
        else:
            def work(term=term):
                members = R.perm_class(term, bound=NODE_BOUND)
                L.count("reduction.perm_terms", len(members))
                return members, 0

            def check(members, index=index, term=term, facts=facts):
                if len(members) != facts["members"]:
                    rec.wrong(f"perm class of {L.parser.print_term(term)}: {len(members)} "
                              f"members, set-up saw {facts['members']}")
                elif round_no == 0:
                    member = list(members.values())[int(facts["pick"] * len(members))]
                    size = len(R.perm_class(member, bound=NODE_BOUND))
                    rec.expect(size == len(members),
                               f"member class has {size} terms, root class {len(members)}")

        rec.item(L, kind, work, check)
