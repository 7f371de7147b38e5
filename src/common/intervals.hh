/**
 * @file
 * Unions of half-open time intervals [start, end), as the phase and
 * goodput reports use them to classify a timeline: merge into a sorted
 * union, test a rising sequence of points against it, and collect its
 * boundaries inside a window (the cuts between which a classification
 * is constant).
 */

#ifndef CHARLLM_COMMON_INTERVALS_HH
#define CHARLLM_COMMON_INTERVALS_HH

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace charllm {

using Interval = std::pair<double, double>; // [start, end)
using IntervalList = std::vector<Interval>;

/** Sort + merge overlapping/adjacent intervals in place. */
inline void
mergeIntervals(IntervalList& intervals)
{
    std::sort(intervals.begin(), intervals.end());
    IntervalList merged;
    for (const auto& iv : intervals) {
        if (iv.second <= iv.first)
            continue;
        if (!merged.empty() && iv.first <= merged.back().second)
            merged.back().second =
                std::max(merged.back().second, iv.second);
        else
            merged.push_back(iv);
    }
    intervals.swap(merged);
}

/** Tests ascending points against a merged, sorted interval union,
 *  walking it once over all of them. */
class IntervalCursor
{
  public:
    explicit IntervalCursor(const IntervalList& intervals)
        : intervals(intervals)
    {
    }

    /** Is @p t inside the union? @p t must not fall below the previous
     *  query's point. */
    bool
    covers(double t)
    {
        while (next < intervals.size() && intervals[next].second <= t)
            ++next;
        return next < intervals.size() && intervals[next].first <= t;
    }

  private:
    const IntervalList& intervals;
    std::size_t next = 0; //!< first interval that ends after the point
};

/** Append every boundary of @p list strictly inside (lo, hi). */
inline void
addCuts(const IntervalList& list, double lo, double hi,
        std::vector<double>& cuts)
{
    for (const auto& iv : list) {
        if (iv.first > lo && iv.first < hi)
            cuts.push_back(iv.first);
        if (iv.second > lo && iv.second < hi)
            cuts.push_back(iv.second);
    }
}

} // namespace charllm

#endif // CHARLLM_COMMON_INTERVALS_HH
