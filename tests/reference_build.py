"""Pure-Python predecessors of the build-path kernels and split choosers.

These are the implementations the integer Morton kernel
(:mod:`repro.geometry.blocks`) and the code-list / fused-column choosers
of BANG, BUDDY and the R-tree replaced, and BUDDY's insert descent that
rebuilt every directory MBR on the way up, kept verbatim as the references
``tests/test_build_kernels.py`` compares the shipped code against.  They
work on ``Bits`` tuples and :class:`Rect` objects only — one per-bit
loop per address, one tuple slice per prefix test, one ``union().area()``
per pair — and take the structure as an argument where they need its
configuration.
"""

from __future__ import annotations

import math

from repro.geometry import blocks
from repro.geometry.blocks import MAX_DEPTH, Bits, common_prefix, is_prefix
from repro.geometry.rect import Rect
from repro.pam import buddytree as buddy_mod
from repro.storage.page import PageKind

# -- geometry.blocks ---------------------------------------------------------


def bits_of_point(point, dims: int, depth: int) -> Bits:
    """The per-bit loop: one shift-and-mask step per halving decision."""
    if depth > MAX_DEPTH:
        raise ValueError(f"depth {depth} exceeds MAX_DEPTH={MAX_DEPTH}")
    per_axis = (depth + dims - 1) // dims
    scale = 1 << per_axis
    quantized = []
    for c in point:
        q = math.floor(c * scale)
        if q >= scale:  # c == 1.0 or float round-up: clamp into the cube
            q = scale - 1
        if q < 0:
            raise ValueError(f"coordinate {c} outside the unit cube")
        quantized.append(q)
    bits = []
    for j in range(depth):
        axis = j % dims
        k = j // dims  # halving index within that axis, MSB first
        bits.append((quantized[axis] >> (per_axis - 1 - k)) & 1)
    return tuple(bits)


def min_enclosing_block(rect: Rect, dims: int, max_depth: int = MAX_DEPTH) -> Bits:
    """Longest common prefix of the corner addresses, upper corner nudged
    inside the half-open cube."""
    lo_bits = bits_of_point(rect.lo, dims, max_depth)
    hi_point = tuple(min(c, 1.0 - 2.0 ** -(MAX_DEPTH + 1)) for c in rect.hi)
    hi_bits = bits_of_point(hi_point, dims, max_depth)
    return common_prefix(lo_bits, hi_bits)


# -- pam.bang ----------------------------------------------------------------


def _point_bits(bang, point) -> Bits:
    return bits_of_point(point, bang.dims, MAX_DEPTH)


def bang_record_in_block(bang, point, bits: Bits) -> bool:
    return is_prefix(bits, _point_bits(bang, point))


def bang_choose_split_block(bang, page) -> Bits | None:
    total = len(page.records)
    record_bits = [_point_bits(bang, p) for p, _ in page.records]
    current = page.bits
    best: Bits | None = None
    best_imbalance = total + 1
    while len(current) < MAX_DEPTH:
        zero = current + (0,)
        count0 = sum(1 for rb in record_bits if is_prefix(zero, rb))
        count1 = sum(1 for rb in record_bits if is_prefix(current, rb)) - count0
        if count0 == 0 and count1 == 0:
            break
        current = zero if count0 >= count1 else current + (1,)
        inner = count0 if count0 >= count1 else count1
        if 0 < inner < total and current not in bang._data_blocks:
            imbalance = abs(inner - (total - inner))
            if imbalance < best_imbalance:
                best_imbalance = imbalance
                best = current
        if inner == 0:
            break
    return best


def bang_choose_directory_split_block(bang, pid, node) -> Bits | None:
    total = len(node.entries)
    sibling_blocks = bang._sibling_blocks(pid)
    current = node.bits
    best: Bits | None = None
    best_imbalance = total + 1
    while len(current) < MAX_DEPTH:
        zero = current + (0,)
        count0 = sum(1 for e in node.entries if is_prefix(zero, e.bits))
        in_cur = sum(1 for e in node.entries if is_prefix(current, e.bits))
        count1 = in_cur - count0
        if count0 == 0 and count1 == 0:
            break
        current = zero if count0 >= count1 else current + (1,)
        inner = max(count0, count1)
        if 0 < inner < total and current not in sibling_blocks:
            imbalance = abs(inner - (total - inner))
            if imbalance < best_imbalance:
                best_imbalance = imbalance
                best = current
    return best


def bang_search_data_page(bang, point, prune: bool = False) -> int:
    """The non-spanning multi-branch probe (charged, like the original)."""
    bits = _point_bits(bang, point)
    prune = prune and bang.minimal_regions
    best_pid, best_len = -1, -1
    stack = [bang._root_pid]
    while stack:
        node = bang.store.read(stack.pop())
        for entry in node.entries:
            if not is_prefix(entry.bits, bits):
                continue
            if prune and (entry.mbr is None or not entry.mbr.contains_point(point)):
                continue
            if node.is_leaf:
                if len(entry.bits) > best_len:
                    best_pid, best_len = entry.pid, len(entry.bits)
            else:
                stack.append(entry.pid)
    return best_pid


# -- pam.buddytree -----------------------------------------------------------


def _entry_block(tree, entry) -> Bits:
    return min_enclosing_block(entry.rect, tree.dims)


def buddy_choose_entry(tree, node, point):
    for entry in node.entries:
        if entry.rect.contains_point(point):
            return entry
    containing = [
        e
        for e in node.entries
        if blocks.block_rect(_entry_block(tree, e), tree.dims).contains_point(point)
    ]
    if containing:
        return max(containing, key=lambda e: len(_entry_block(tree, e)))
    point_bits = bits_of_point(point, tree.dims, MAX_DEPTH)
    best = None
    best_len = -1
    for entry in node.entries:
        grown_block = common_prefix(_entry_block(tree, entry), point_bits)
        grown_rect = blocks.block_rect(grown_block, tree.dims)
        if any(
            other is not entry and grown_rect.intersects(other.rect)
            for other in node.entries
        ):
            continue
        if len(grown_block) > best_len:
            best_len = len(grown_block)
            best = entry
    return best


def buddy_split_records(tree, records):
    mbr = Rect.bounding_points([p for p, _ in records])
    block = min_enclosing_block(mbr, tree.dims)
    if len(block) >= MAX_DEPTH:
        return None
    lower, upper = [], []
    for record in records:
        bits = bits_of_point(record[0], tree.dims, len(block) + 1)
        (upper if bits[-1] else lower).append(record)
    if not lower or not upper:
        return None
    return (
        lower,
        upper,
        Rect.bounding_points([p for p, _ in lower]),
        Rect.bounding_points([p for p, _ in upper]),
    )


def buddy_split_entries(tree, entries):
    entry_blocks = [_entry_block(tree, e) for e in entries]
    common = entry_blocks[0]
    for b in entry_blocks[1:]:
        common = common_prefix(common, b)
    depth = len(common)
    lower = [e for e, b in zip(entries, entry_blocks) if len(b) > depth and b[depth] == 0]
    upper = [e for e, b in zip(entries, entry_blocks) if len(b) > depth and b[depth] == 1]
    stuck = [e for e, b in zip(entries, entry_blocks) if len(b) <= depth]
    for e in stuck:
        (lower if len(lower) <= len(upper) else upper).append(e)
    if not lower or not upper:
        every = lower or upper
        every.sort(key=lambda e: e.rect.area())
        return every[:-1], every[-1:]
    return lower, upper


def buddy_insert_descend(tree, pid, point, rid, at_root, depth=1) -> Rect:
    """The descent that rebuilt every directory MBR on the way up:
    returns ``Rect.bounding`` of the node's entries, and rebinds the
    chosen entry's region whether or not it grew."""
    node = tree.store.read(pid)
    entry = tree._choose_entry(node, point)
    if entry is None:
        new_page = buddy_mod._DataPage([(point, rid)])
        new_pid = tree.store.allocate(PageKind.DATA, new_page)
        tree.store.write(new_pid)
        child_entry = buddy_mod._Entry(Rect.from_point(point), new_pid, True)
        if tree.balanced:
            for _ in range(tree._levels - depth):
                chain = buddy_mod._DirNode([child_entry])
                chain_pid = tree.store.allocate(PageKind.DIRECTORY, chain)
                tree.store.write(chain_pid)
                child_entry = buddy_mod._Entry(child_entry.rect, chain_pid, False)
        node.entries.append(child_entry)
    elif entry.is_data:
        page = tree.store.read(entry.pid)
        page.records.append((point, rid))
        entry.rect = entry.rect.expanded_to_point(point)
        node.entries.touch()
        if len(page.records) > tree._capacity:
            tree._split_data_entry(node, entry, page)
        else:
            tree.store.write(entry.pid)
    else:
        child_mbr = buddy_insert_descend(
            tree, entry.pid, point, rid, at_root=False, depth=depth + 1
        )
        entry.rect = child_mbr
        node.entries.touch()
        child = tree.store.held(entry.pid)
        if tree._node_overflowed(child):
            tree._split_dir_entry(node, entry, child)
    tree.store.write(pid)
    if at_root:
        while True:
            root_node = tree.store.held(tree._root_pid)
            if not tree._node_overflowed(root_node):
                break
            tree._grow_root(root_node)
    return Rect.bounding([e.rect for e in node.entries])


# -- sam.rtree ---------------------------------------------------------------


def rtree_choose_subtree(node, rect: Rect) -> int:
    best, best_key = 0, None
    for i, r in enumerate(node.rects):
        key = (r.enlargement(rect), r.area())
        if best_key is None or key < best_key:
            best, best_key = i, key
    return best


def rtree_pick_seeds(entries: list) -> tuple[int, int]:
    worst, pair = -1.0, (0, 1)
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            waste = (
                entries[i][0].union(entries[j][0]).area()
                - entries[i][0].area()
                - entries[j][0].area()
            )
            if waste > worst:
                worst, pair = waste, (i, j)
    return pair


def rtree_split_guttman(tree, entries: list) -> tuple[list, list]:
    i, j = rtree_pick_seeds(entries)
    left, right = [entries[i]], [entries[j]]
    left_rect, right_rect = entries[i][0], entries[j][0]
    rest = [e for k, e in enumerate(entries) if k not in (i, j)]
    while rest:
        if len(left) + len(rest) <= tree._min_entries:
            left.extend(rest)
            break
        if len(right) + len(rest) <= tree._min_entries:
            right.extend(rest)
            break
        best_k, best_diff = 0, -1.0
        for k, (rect, _) in enumerate(rest):
            diff = abs(left_rect.enlargement(rect) - right_rect.enlargement(rect))
            if diff > best_diff:
                best_k, best_diff = k, diff
        rect, child = rest.pop(best_k)
        grow_left = left_rect.enlargement(rect)
        grow_right = right_rect.enlargement(rect)
        key = (grow_left, left_rect.area(), len(left))
        other = (grow_right, right_rect.area(), len(right))
        if key <= other:
            left.append((rect, child))
            left_rect = left_rect.union(rect)
        else:
            right.append((rect, child))
            right_rect = right_rect.union(rect)
    return left, right
