#include "forest.h"

#include <algorithm>

#include "sim/logging.h"

namespace prosperity {

ProsparsityForest::ProsparsityForest(
    const std::vector<std::int32_t>& prefixes)
    : children_(prefixes.size())
{
    const std::size_t m = prefixes.size();
    for (std::size_t i = 0; i < m; ++i) {
        if (prefixes[i] >= 0) {
            const auto p = static_cast<std::size_t>(prefixes[i]);
            PROSPERITY_ASSERT(p < m, "prefix index out of range");
            children_[p].push_back(i);
        } else {
            roots_.push_back(i);
        }
    }

    // Depth + cycle check via BFS from the roots.
    std::vector<std::size_t> level(m, 0);
    std::vector<std::size_t> queue = roots_;
    for (auto r : queue)
        level[r] = 1;
    std::size_t visited = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
        const std::size_t node = queue[head];
        ++visited;
        depth_ = std::max(depth_, level[node]);
        for (auto child : children_[node]) {
            level[child] = level[node] + 1;
            queue.push_back(child);
        }
    }
    acyclic_ = visited == m;
}

const std::vector<std::size_t>&
ProsparsityForest::children(std::size_t row) const
{
    PROSPERITY_ASSERT(row < children_.size(), "row out of range");
    return children_[row];
}

std::vector<std::size_t>
ProsparsityForest::bfsOrder() const
{
    std::vector<std::size_t> order = roots_;
    order.reserve(children_.size());
    for (std::size_t head = 0; head < order.size(); ++head)
        for (auto child : children_[order[head]])
            order.push_back(child);
    return order;
}

} // namespace prosperity
