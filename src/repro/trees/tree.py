"""Rooted phylogenetic trees with foreground-branch marks.

Each :class:`Node` owns the branch *above* it (connecting it to its
parent): ``length`` is that branch's length and ``foreground`` marks it
as the branch-site model's foreground branch.  The root has no branch.

The likelihood engines consume trees through :meth:`Tree.postorder` and
the flat :meth:`Tree.branch_table`, so they never walk the linked
structure in their hot loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

__all__ = ["Node", "Tree"]


@dataclass
class Node:
    """One tree node plus the branch connecting it to its parent.

    Attributes
    ----------
    name:
        Leaf/taxon label; internal nodes may be unnamed (``""``).
    length:
        Length of the branch above this node, in expected substitutions
        per codon; ``0.0`` and unset are both represented by the value
        (the root's length is ignored).
    foreground:
        True when the branch above this node is the foreground branch.
    children:
        Child nodes, in input order.
    """

    name: str = ""
    length: float = 0.0
    foreground: bool = False
    children: List["Node"] = field(default_factory=list)
    parent: Optional["Node"] = field(default=None, repr=False, compare=False)
    #: Stable index assigned by :class:`Tree` (leaves first, then
    #: internal nodes in post-order); -1 until the tree indexes it.
    index: int = field(default=-1, compare=False)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def is_root(self) -> bool:
        return self.parent is None

    def add_child(self, child: "Node") -> "Node":
        """Attach ``child`` (re-parenting it) and return it."""
        child.parent = self
        self.children.append(child)
        return child

    def postorder(self) -> Iterator["Node"]:
        """Iterative post-order traversal of the subtree rooted here."""
        stack: List[Tuple[Node, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                yield node
            else:
                stack.append((node, True))
                for child in reversed(node.children):
                    stack.append((child, False))

    def preorder(self) -> Iterator["Node"]:
        """Iterative pre-order traversal of the subtree rooted here."""
        stack: List[Node] = [self]
        while stack:
            node = stack.pop()
            yield node
            for child in reversed(node.children):
                stack.append(child)


class Tree:
    """A rooted tree with stable node indexing and foreground bookkeeping.

    Indexing: leaves receive indices ``0 .. n_leaves-1`` in post-order
    encounter order; internal nodes continue from ``n_leaves`` in
    post-order, so every child index is smaller than its parent's — the
    property Felsenstein pruning relies on to run as a flat loop.
    """

    def __init__(self, root: Node) -> None:
        if root.parent is not None:
            raise ValueError("the tree root must not have a parent")
        self.root = root
        self._reindex()

    # ------------------------------------------------------------------
    # Structure and indexing
    # ------------------------------------------------------------------
    def _reindex(self) -> None:
        leaves = [n for n in self.root.postorder() if n.is_leaf]
        internals = [n for n in self.root.postorder() if not n.is_leaf]
        self._nodes: List[Node] = leaves + internals
        for i, node in enumerate(self._nodes):
            node.index = i
        names = [leaf.name for leaf in leaves]
        if any(not name for name in names):
            raise ValueError("every leaf must be named")
        if len(set(names)) != len(names):
            raise ValueError("duplicate leaf names in tree")
        self._leaves = leaves

    @property
    def nodes(self) -> Sequence[Node]:
        """All nodes, leaves first then internal nodes in post-order."""
        return tuple(self._nodes)

    @property
    def leaves(self) -> Sequence[Node]:
        return tuple(self._leaves)

    @property
    def n_leaves(self) -> int:
        return len(self._leaves)

    @property
    def n_branches(self) -> int:
        """Number of branches (every node except the root owns one)."""
        return len(self._nodes) - 1

    def postorder(self) -> Iterator[Node]:
        return self.root.postorder()

    def preorder(self) -> Iterator[Node]:
        return self.root.preorder()

    def leaf_names(self) -> List[str]:
        return [leaf.name for leaf in self._leaves]

    def find(self, name: str) -> Node:
        """Return the unique node with the given name."""
        matches = [n for n in self._nodes if n.name == name]
        if not matches:
            raise KeyError(f"no node named {name!r}")
        if len(matches) > 1:
            raise KeyError(f"ambiguous node name {name!r}")
        return matches[0]

    def is_binary(self) -> bool:
        """True when every internal node has 2 children (root may have 2-3)."""
        for node in self.root.postorder():
            if node.is_leaf:
                continue
            limit = 3 if node.is_root else 2
            if not (2 <= len(node.children) <= limit):
                return False
        return True

    def validate_branch_lengths(self) -> None:
        """Raise :class:`ValueError` on negative or non-finite lengths."""
        for node in self._nodes:
            if node.is_root:
                continue
            if not (node.length >= 0.0) or node.length != node.length:
                raise ValueError(
                    f"branch above {node.name or f'node#{node.index}'} has invalid "
                    f"length {node.length!r}"
                )

    # ------------------------------------------------------------------
    # Foreground-branch bookkeeping (paper Fig. 1, Table I)
    # ------------------------------------------------------------------
    def foreground_nodes(self) -> List[Node]:
        """Nodes whose parent branch is marked as foreground."""
        return [n for n in self._nodes if n.foreground and not n.is_root]

    def mark_foreground(self, target: "Node | str", *, clear: bool = True) -> Node:
        """Mark the branch above ``target`` (a node or node name) as foreground.

        With ``clear`` (default) any previous marks are removed first, so
        the tree has exactly one foreground branch afterwards — the
        branch-site test examines one branch at a time (§I-A).
        """
        node = self.find(target) if isinstance(target, str) else target
        if node.is_root:
            raise ValueError("the root has no branch to mark as foreground")
        if clear:
            for n in self._nodes:
                n.foreground = False
        node.foreground = True
        return node

    def require_single_foreground(self) -> Node:
        """Return the unique foreground branch or raise :class:`ValueError`."""
        marked = self.foreground_nodes()
        if len(marked) != 1:
            raise ValueError(
                f"branch-site model A requires exactly one foreground branch, found {len(marked)}"
            )
        return marked[0]

    # ------------------------------------------------------------------
    # Flat views for the engines
    # ------------------------------------------------------------------
    def branch_table(self) -> List[Tuple[int, int, float, bool]]:
        """Flat branch list: ``(child_index, parent_index, length, foreground)``.

        Ordered so child rows appear before any row whose child is their
        parent (post-order), ready for a loop-based pruning pass.
        """
        rows = []
        for node in self.root.postorder():
            if node.is_root:
                continue
            rows.append((node.index, node.parent.index, float(node.length), node.foreground))
        return rows

    def branch_lengths(self) -> List[float]:
        """Branch lengths ordered by child-node index (root excluded)."""
        return [n.length for n in self._nodes if not n.is_root]

    def set_branch_lengths(self, lengths: Sequence[float]) -> None:
        """Inverse of :meth:`branch_lengths`; validates count and values."""
        targets = [n for n in self._nodes if not n.is_root]
        if len(lengths) != len(targets):
            raise ValueError(f"expected {len(targets)} branch lengths, got {len(lengths)}")
        for node, length in zip(targets, lengths):
            length = float(length)
            if not length >= 0.0:
                raise ValueError(f"negative branch length {length}")
            node.length = length

    def total_tree_length(self) -> float:
        return sum(n.length for n in self._nodes if not n.is_root)

    # ------------------------------------------------------------------
    # Rerooting / copying
    # ------------------------------------------------------------------
    def copy(self) -> "Tree":
        """Deep structural copy (marks and lengths preserved)."""

        def clone(node: Node) -> Node:
            fresh = Node(name=node.name, length=node.length, foreground=node.foreground)
            for child in node.children:
                fresh.add_child(clone(child))
            return fresh

        return Tree(clone(self.root))

    def unroot(self) -> "Tree":
        """Collapse a bifurcating root into a trifurcation (in place).

        Time-reversible models make the likelihood invariant to root
        placement (the pulley principle), so CodeML analyses unrooted
        trees; a 2-child root over-parameterises the two root branches.
        The two root-adjacent branches are merged: the child with more
        descendants absorbs the other's length and an OR of the marks.
        No-op when the root already has ≥3 children.
        """
        if len(self.root.children) != 2:
            return self
        left, right = self.root.children
        # Absorb into the internal child so leaves keep their own branch.
        keep, fold = (left, right) if not left.is_leaf else (right, left)
        if keep.is_leaf:
            raise ValueError("cannot unroot a two-leaf tree")
        fold.length += keep.length
        fold.foreground = fold.foreground or keep.foreground
        keep.parent = None
        keep.name = keep.name or self.root.name
        keep.length = 0.0
        keep.foreground = False
        self.root.children = []
        keep.add_child(fold)
        self.root = keep
        self._reindex()
        return self

    def __repr__(self) -> str:
        return f"Tree(n_leaves={self.n_leaves}, n_branches={self.n_branches})"
