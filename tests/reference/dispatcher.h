/**
 * @file
 * ProSparsity Dispatcher (Sec. V-D) — stage-by-stage reference model.
 *
 * Test-only, like reference/detector.h: core/tile_analysis.h produces
 * the same order by counting sort, and core/tile_pipeline.cc the same
 * cost model.
 *
 * Derives the execution order of a tile's rows. The paper's key
 * observation: a *stable* sort by number-of-ones already places every
 * prefix before its suffixes — partial-match prefixes have strictly
 * fewer ones, and exact-match prefixes have equal ones but a smaller
 * index, which stability preserves. The hardware realizes this with a
 * parallel bitonic sorter that runs concurrently with detection, making
 * order generation overhead-free.
 *
 * The high-overhead alternative the ablation study compares against
 * (Fig. 9) traverses the forest breadth-first, which costs O(m * d)
 * cycles because the O(m) table stores no suffix lists.
 */

#ifndef PROSPERITY_REFERENCE_DISPATCHER_H
#define PROSPERITY_REFERENCE_DISPATCHER_H

#include <cstddef>
#include <vector>

#include "core/tile_pipeline.h"
#include "reference/pruner.h"

namespace prosperity {

/** Execution order plus its cost model. */
struct DispatchResult
{
    /** Row indices in issue order (temporal information of Fig. 3 (d)). */
    std::vector<std::size_t> order;

    /**
     * Cycles of order generation that cannot be hidden behind the
     * detection pipeline. Zero for kOverheadFree (the bitonic sorter's
     * O(log^2 m) depth runs concurrently); m * depth for traversal.
     */
    std::size_t exposed_cycles = 0;

    /** Compare-exchange operations issued by the sorter (energy). */
    double sorter_compares = 0.0;

    /** Sparsity-table entry accesses (energy). */
    double table_accesses = 0.0;
};

/** Execution-order generator. */
class Dispatcher
{
  public:
    explicit Dispatcher(DispatchMode mode = DispatchMode::kOverheadFree)
        : mode_(mode)
    {
    }

    DispatchMode mode() const { return mode_; }

    /** Generate the issue order for one tile's sparsity table. */
    DispatchResult dispatch(const SparsityTable& table) const;

  private:
    DispatchMode mode_;
};

} // namespace prosperity

#endif // PROSPERITY_REFERENCE_DISPATCHER_H
