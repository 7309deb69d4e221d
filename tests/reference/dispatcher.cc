#include "dispatcher.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/forest.h"
#include "sim/logging.h"

namespace prosperity {

namespace {

/** Compare-exchange count of an m-input bitonic sorting network. */
double
bitonicCompares(std::size_t m)
{
    if (m <= 1)
        return 0.0;
    const double log_m = std::ceil(std::log2(static_cast<double>(m)));
    return static_cast<double>(m) / 2.0 * log_m * (log_m + 1.0) / 2.0;
}

} // namespace

DispatchResult
Dispatcher::dispatch(const SparsityTable& table) const
{
    const std::size_t m = table.size();
    DispatchResult result;
    result.table_accesses = 2.0 * static_cast<double>(m); // write + read

    switch (mode_) {
      case DispatchMode::kOverheadFree: {
        result.order.resize(m);
        std::iota(result.order.begin(), result.order.end(), 0);
        std::stable_sort(result.order.begin(), result.order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return table[a].popcount < table[b].popcount;
                         });
        result.exposed_cycles = 0; // hidden behind the detect pipeline
        result.sorter_compares = bitonicCompares(m);
        break;
      }
      case DispatchMode::kTreeTraversal: {
        const ProsparsityForest forest(prefixIndices(table));
        result.order = forest.bfsOrder();
        // Without suffix pointers, scheduling each row requires walking
        // its prefix chain leaf-to-root through the table (Sec. V-D's
        // O(m * d) search-time issue): one table lookup per chain hop.
        std::size_t walk = 0;
        for (std::size_t i = 0; i < m; ++i) {
            std::size_t hops = 1;
            std::int32_t node = table[i].prefix;
            while (node != PrefixEntry::kNoPrefix) {
                ++hops;
                node = table[static_cast<std::size_t>(node)].prefix;
            }
            walk += hops;
        }
        // The table is banked two ways, so two walks proceed in
        // parallel per cycle.
        result.exposed_cycles = (walk + 1) / 2;
        result.table_accesses += static_cast<double>(walk);
        break;
      }
    }
    PROSPERITY_ASSERT(result.order.size() == m,
                      "dispatch order must cover every row");
    return result;
}

} // namespace prosperity
