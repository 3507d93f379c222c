"""A frozen table of search outcomes: (status, nodes, refutation) for 40
seeded stability pairs, each probed at delta * {1/4, 1/2, 3/4, 1} with a
budget of 200 nodes, where delta is the pair's sup-norm distance.

`test_interleave.test_search_outcomes_are_frozen` compares the search
with the table in search_outcomes.json. A change that alters outcomes on
purpose regenerates it, from the repository root, with

    PYTHONPATH=src python tests/search_outcomes.py > tests/search_outcomes.json
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import reeb

TABLE = Path(__file__).with_name("search_outcomes.json")


def stability_graphs(seed):
    """The two graphs of one seeded stability pair and their distance."""
    edges, fv, gv = reeb.random_stability_pair(random.Random(seed))
    graphs = [reeb.build_rgraph(vals, [(e, a, b) if vals[a] < vals[b] else (e, b, a)
                                       for e, (a, b) in edges.items()])
              for vals in (fv, gv)]
    return (*graphs, max(abs(fv[v] - gv[v]) for v in fv))


def _text(x):
    return None if x is None else reeb.format_rational(x)


def outcome_rows():
    rows = []
    for seed in range(40):
        f, g, delta = stability_graphs(seed)
        for k in range(1, 5):
            eps = delta * Fraction(k, 4)
            out = reeb.search_certificate(f, g, eps, budget=200)
            ref = out.refutation
            rows.append([seed, _text(eps), out.status, out.nodes, None if ref is None else
                         [_text(ref.interval.lo), _text(ref.interval.hi), ref.side,
                          ref.image, ref.bound]])
    return rows


if __name__ == "__main__":
    print(json.dumps(outcome_rows(), indent=None).replace("], [", "],\n ["))
