"""Static DODAG topologies for the simulator.

The testbed preset models a gateway plus 30 devices: the measurement path
n1..n7 (ranks 1..7) and 23 further devices arranged as shorter branches that
hang off the gateway, so their traffic contends with the path near the root.
Branch lengths are [6, 5, 4, 3, 2, 2, 1]; branch j's nodes are named
``b<j>_<rank>``. The arrangement is a documented choice and can be replaced
by an explicit node list in scenario files.
"""

from __future__ import annotations

from dataclasses import dataclass, field

GATEWAY = "gw"

PAPER_BRANCH_LENGTHS = (6, 5, 4, 3, 2, 2, 1)
PAPER_PATH = tuple(f"n{i}" for i in range(1, 8))


class TopologyError(ValueError):
    pass


@dataclass(slots=True)
class Topology:
    """Tree rooted at the gateway; every non-root has exactly one parent."""

    parents: dict[str, str | None]
    ranks: dict[str, int] = field(init=False)
    children: dict[str, list[str]] = field(init=False)
    root: str = field(init=False)

    def __post_init__(self) -> None:
        roots = [n for n, p in self.parents.items() if p is None]
        if len(roots) != 1:
            raise TopologyError(f"expected exactly one root, found {roots}")
        self.root = roots[0]
        self.children = {n: [] for n in self.parents}
        for node, parent in self.parents.items():
            if parent is None:
                continue
            if parent not in self.parents:
                raise TopologyError(f"{node} references unknown parent {parent}")
            self.children[parent].append(node)
        self.ranks = {}
        frontier = [self.root]
        self.ranks[self.root] = 0
        while frontier:
            node = frontier.pop(0)
            for child in self.children[node]:
                self.ranks[child] = self.ranks[node] + 1
                frontier.append(child)
        if len(self.ranks) != len(self.parents):
            unreached = set(self.parents) - set(self.ranks)
            raise TopologyError(f"unreachable nodes (cycle?): {sorted(unreached)}")

    @property
    def nodes(self) -> list[str]:
        return list(self.parents)

    @property
    def devices(self) -> list[str]:
        return [n for n in self.parents if n != self.root]

    @property
    def edges(self) -> list[tuple[str, str]]:
        return [(p, n) for n, p in self.parents.items() if p is not None]

    def neighbors(self, node: str) -> list[str]:
        out = []
        parent = self.parents[node]
        if parent is not None:
            out.append(parent)
        out.extend(self.children[node])
        return out


def build_paper_topology() -> Topology:
    """Gateway + 30 devices: the rank 1..7 path plus branches off the root."""
    parents: dict[str, str | None] = {GATEWAY: None}
    previous = GATEWAY
    for name in PAPER_PATH:
        parents[name] = previous
        previous = name
    for j, length in enumerate(PAPER_BRANCH_LENGTHS, start=1):
        previous = GATEWAY
        for rank in range(1, length + 1):
            name = f"b{j}_{rank}"
            parents[name] = previous
            previous = name
    return Topology(parents)

