"""A host-independent budget for the per-op block update: calls, not clocks.

A bulk storm's batched slots fold a run of block ops into one update,
but every op the dispatcher peels off runs alone: ``block.join(ch)``,
``block.leave(ch)`` or a cached ``block.join_op(ch)``. On the tree in
TREE_ONLY mode each takes the edge agent's O(1) fast path, and its
Python calls are counted here exactly — a writer that costs one more
frame per op shows on any host.
"""

from repro import CountPropagation, ExpressNetwork, TopologyBuilder
from tests.callcount import python_calls

#: Ops per stream, and each stream's Python calls as counted when the
#: budget was set (the loop's own frame included); they repeat exactly.
N = 1000
JOIN_CALLS = 3001
LEAVE_CALLS = 3001
JOIN_OP_CALLS = 4001


def on_tree_block():
    net = ExpressNetwork(
        TopologyBuilder.isp(2, 2, 2, seed=11), propagation=CountPropagation.TREE_ONLY
    )
    net.run(until=0.1)
    source = net.source("h0_0_0")
    channel = source.allocate_channel()
    block = net.subscriber_block("e1_1")
    block.join(channel, 5000)
    net.settle()
    source.send(channel)
    net.settle()
    assert block.deliveries == 5000  # flushes the view's tallies
    return block, channel


def test_a_block_op_on_the_tree_stays_inside_its_call_budget():
    block, channel = on_tree_block()
    join_op = block.join_op(channel)

    def joins():
        for _ in range(N):
            block.join(channel)

    def leaves():
        for _ in range(N):
            block.leave(channel)

    def cached_joins():
        for _ in range(N):
            join_op()

    counted = (python_calls(joins), python_calls(leaves), python_calls(cached_joins))
    assert block.count(channel) == 5000 + N
    assert block.agent.block_fast_updates == 3 * N
    budget = (JOIN_CALLS, LEAVE_CALLS, JOIN_OP_CALLS)
    print(
        f"\nblock budget: {' / '.join(map(str, counted))} Python calls for {N} "
        f"join / leave / join_op ops on the tree (budget {' / '.join(map(str, budget))})"
    )
    assert counted == budget, (
        f"{counted} Python calls for {N} block join / leave / join_op ops, "
        f"budget {budget}: a per-op block update costs another call"
    )
