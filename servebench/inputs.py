"""Seeded inputs: the dataset, the twig queries, the update ops and the
open-loop arrival times.  Same seed, same inputs; the server only ever
sees what these functions generate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: The dataset every workload serves: seeded dblp at scale 0.8.
DATASET = {"generator": "dblp", "seed": 7, "scale": 0.8}

#: Tags an insert may hang a subtree under.  Deletes never remove them.
INSERT_PARENTS = ("article", "inproceedings", "book")
#: Leaf tags a delete may remove.  They never hold children, so two
#: deletes in one admission group cannot target a node and its
#: descendant.
DELETE_TAGS = ("author", "cite", "title", "year", "pages", "url", "volume")
#: Small subtrees (1-3 nodes) the inserts splice in.
INSERT_SNIPPETS = (
    "<author>Ada Lovelace</author>",
    "<cite>conf/edbt/02</cite>",
    "<note><author>Grace Hopper</author></note>",
    "<note><title>Twig Estimation</title><year>2002</year></note>",
)
#: An insert adds 1.75 nodes on average and a delete removes one, so
#: this share keeps the node count within a few percent of the start.
INSERT_SHARE = 0.36


def make_document():
    from repro.datasets import generate_dblp

    return generate_dblp(seed=DATASET["seed"], scale=DATASET["scale"])


def twig_queries(tree, seed: int, count: int) -> list[str]:
    """``count`` random twigs of 2-5 nodes with 10% likely-empty edges,
    as XPath strings."""
    from repro.workloads import RandomTwigGenerator

    generator = RandomTwigGenerator(tree, seed=seed, miss_probability=0.1)
    return [t.to_xpath() for t in generator.workload(count, min_size=2, max_size=5)]


def warmup_queries(tags: list[str]) -> list[str]:
    """One descendant pair per ordered tag pair, so every per-tag
    histogram the random twigs can touch is derived before timing."""
    return [f"//{a}//{b}" for a in tags for b in tags]


class WriteStream:
    """Seeded inserts at random parents and deletes of random leaves.

    Targets are ``{"tag", "ordinal"}`` descriptions.  An ordinal is
    drawn below the count the tag is certain to still have, so every op
    is valid however the server groups it.  Counts are tracked by what
    the stream itself did, starting from the document's tag counts.
    """

    def __init__(self, tag_counts: dict[str, int], seed: int) -> None:
        self._rng = random.Random(seed)
        self._parents = {t: tag_counts.get(t, 0) for t in INSERT_PARENTS}
        # A delete may only count on elements of the original document:
        # inserted ones may still sit in the same unflushed group.
        self._deletable = {t: tag_counts.get(t, 0) for t in DELETE_TAGS}

    def next(self) -> dict:
        rng = self._rng
        if rng.random() < INSERT_SHARE:
            parents = [t for t, n in self._parents.items() if n > 0]
            tag = rng.choice(parents)
            return {
                "op": "insert",
                "parent": {"tag": tag, "ordinal": rng.randint(1, self._parents[tag])},
                "xml": rng.choice(INSERT_SNIPPETS),
            }
        tags = [t for t, n in self._deletable.items() if n > 0]
        tag = rng.choice(tags)
        ordinal = rng.randint(1, self._deletable[tag])
        self._deletable[tag] -= 1
        return {"op": "delete", "node": {"tag": tag, "ordinal": ordinal}}


@dataclass(frozen=True)
class Arrival:
    at: float  # seconds after the phase starts
    request: dict


def fixed_rate_schedule(rate: float, seconds: float, make) -> list[Arrival]:
    """Open-loop arrivals evenly spaced at ``rate`` per second over
    ``seconds``; ``make()`` builds each request.  Even spacing (rather
    than Poisson gaps) keeps the offered load of every run identical,
    so run-to-run spread comes from the server, not the schedule."""
    count = int(rate * seconds)
    return [Arrival((i + 0.5) / rate, make()) for i in range(count)]
