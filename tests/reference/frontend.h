/**
 * @file
 * The PPU tile front end as the paper draws it, stage by stage:
 * detectNaive() -> Pruner -> Dispatcher -> cost.
 *
 * Test-only oracle for core/tile_pipeline.h: it builds the full m x m
 * subset mask, one residual pattern per row and a stable sort, and
 * must agree with TilePipeline::process on every TileStats field.
 */

#ifndef PROSPERITY_REFERENCE_FRONTEND_H
#define PROSPERITY_REFERENCE_FRONTEND_H

#include <cstddef>

#include "core/tile_pipeline.h"
#include "reference/dispatcher.h"
#include "reference/pruner.h"

namespace prosperity {

/** Sparsity table and issue order of one tile. */
struct ReferenceFrontEnd
{
    SparsityTable table;
    DispatchResult dispatch;
};

/** Detect (naive all-pairs sweep), prune and dispatch one tile. */
ReferenceFrontEnd referenceFrontEnd(const BitMatrix& tile,
                                    DispatchMode dispatch);

/** TileStats of one tile, derived from the stage-by-stage model. */
TileStats referenceTileStats(const BitMatrix& tile, SparsityMode sparsity,
                             DispatchMode dispatch,
                             std::size_t issue_width = 1);

} // namespace prosperity

#endif // PROSPERITY_REFERENCE_FRONTEND_H
