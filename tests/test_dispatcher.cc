/**
 * @file
 * Tests for the Dispatcher (Sec. V-D): the overhead-free stable sort
 * and the high-overhead traversal ablation.
 */

#include <gtest/gtest.h>

#include "reference/detector.h"
#include "reference/dispatcher.h"
#include "sim/rng.h"

namespace prosperity {
namespace {

SparsityTable
pruneTile(const BitMatrix& tile)
{
    return Pruner().prune(tile, Detector().detect(tile));
}

/** Every prefix must be issued before its suffixes. */
void
expectTopological(const SparsityTable& table,
                  const std::vector<std::size_t>& order)
{
    ASSERT_EQ(order.size(), table.size());
    std::vector<std::size_t> position(order.size());
    for (std::size_t idx = 0; idx < order.size(); ++idx)
        position[order[idx]] = idx;
    for (std::size_t i = 0; i < table.size(); ++i) {
        if (table[i].hasPrefix()) {
            EXPECT_LT(position[static_cast<std::size_t>(table[i].prefix)],
                      position[i])
                << "prefix of row " << i << " issued too late";
        }
    }
}

TEST(Dispatcher, PaperSortedOrder)
{
    // Fig. 5 (c): sorting the NO vector (2,2,3,1,3,3) stably yields
    // 3, 0, 1, 2, 4, 5.
    const BitMatrix tile = BitMatrix::fromStrings({
        "1010", "1001", "1011", "0010", "1101", "1101"});
    const DispatchResult r =
        Dispatcher(DispatchMode::kOverheadFree).dispatch(pruneTile(tile));
    const std::vector<std::size_t> expected = {3, 0, 1, 2, 4, 5};
    EXPECT_EQ(r.order, expected);
    EXPECT_EQ(r.exposed_cycles, 0u);
}

TEST(Dispatcher, StableSortOrderIsTopological)
{
    Rng rng(19);
    for (int trial = 0; trial < 25; ++trial) {
        BitMatrix tile(128, 16);
        tile.randomize(rng, 0.1 + 0.03 * trial);
        const SparsityTable table = pruneTile(tile);
        const DispatchResult r =
            Dispatcher(DispatchMode::kOverheadFree).dispatch(table);
        expectTopological(table, r.order);
    }
}

TEST(Dispatcher, TraversalOrderIsTopological)
{
    Rng rng(20);
    for (int trial = 0; trial < 10; ++trial) {
        BitMatrix tile(96, 16);
        tile.randomize(rng, 0.3);
        const SparsityTable table = pruneTile(tile);
        const DispatchResult r =
            Dispatcher(DispatchMode::kTreeTraversal).dispatch(table);
        expectTopological(table, r.order);
    }
}

TEST(Dispatcher, TraversalExposesCycles)
{
    // The ablation's point: traversal costs O(m * d) un-hideable cycles
    // while the stable sort exposes none.
    const BitMatrix tile = BitMatrix::fromStrings({
        "1100", "1100", "1100", "1100"});
    const SparsityTable table = pruneTile(tile);
    const DispatchResult free_r =
        Dispatcher(DispatchMode::kOverheadFree).dispatch(table);
    const DispatchResult slow_r =
        Dispatcher(DispatchMode::kTreeTraversal).dispatch(table);
    EXPECT_EQ(free_r.exposed_cycles, 0u);
    // Per-row leaf-to-root walks over the EM chain: 1+2+3+4 = 10 hops
    // over 2 parallel table banks.
    EXPECT_EQ(slow_r.exposed_cycles, 5u); // ceil(10 hops / 2 lanes)
}

TEST(Dispatcher, SorterCompareCountMatchesBitonicNetwork)
{
    BitMatrix tile(256, 16);
    Rng rng(3);
    tile.randomize(rng, 0.3);
    const DispatchResult r =
        Dispatcher(DispatchMode::kOverheadFree).dispatch(pruneTile(tile));
    // m/2 * log(m) * (log(m)+1) / 2 = 128 * 8 * 9 / 2 = 4608.
    EXPECT_DOUBLE_EQ(r.sorter_compares, 4608.0);
}

TEST(Dispatcher, StabilityPreservesIndexOrderWithinEqualNo)
{
    // Equal-popcount rows must keep ascending index order; EM prefixes
    // rely on it.
    const BitMatrix tile = BitMatrix::fromStrings({
        "0011", "1100", "0101", "1010"});
    const DispatchResult r =
        Dispatcher(DispatchMode::kOverheadFree).dispatch(pruneTile(tile));
    const std::vector<std::size_t> expected = {0, 1, 2, 3};
    EXPECT_EQ(r.order, expected);
}

TEST(Dispatcher, EmptyTable)
{
    const DispatchResult r =
        Dispatcher(DispatchMode::kOverheadFree).dispatch(SparsityTable{});
    EXPECT_TRUE(r.order.empty());
}

} // namespace
} // namespace prosperity
