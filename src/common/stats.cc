#include "common/stats.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace charllm {

void
RunningStats::add(double x)
{
    ++n;
    total += x;
    double delta = x - mu;
    mu += delta / static_cast<double>(n);
    m2 += delta * (x - mu);
    lo = std::min(lo, x);
    hi = std::max(hi, x);
}

void
RunningStats::merge(const RunningStats& other)
{
    if (other.n == 0)
        return;
    if (n == 0) {
        *this = other;
        return;
    }
    double na = static_cast<double>(n);
    double nb = static_cast<double>(other.n);
    double delta = other.mu - mu;
    double combined = na + nb;
    m2 += other.m2 + delta * delta * na * nb / combined;
    mu = (na * mu + nb * other.mu) / combined;
    n += other.n;
    total += other.total;
    lo = std::min(lo, other.lo);
    hi = std::max(hi, other.hi);
}

void
RunningStats::reset()
{
    *this = RunningStats();
}

double
RunningStats::variance() const
{
    return n > 1 ? m2 / static_cast<double>(n - 1) : 0.0;
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

void
TimeWeightedStats::accumulate(double until)
{
    double dt = until - lastTime;
    CHARLLM_ASSERT(dt >= -1e-12, "time went backwards in TimeWeightedStats");
    if (dt > 0.0) {
        weighted += lastValue * dt;
        totalTime += dt;
        lo = std::min(lo, lastValue);
        hi = std::max(hi, lastValue);
    }
}

void
TimeWeightedStats::update(double time, double value)
{
    if (hasSample) {
        accumulate(time);
    } else {
        hasSample = true;
    }
    lastTime = time;
    lastValue = value;
}

void
TimeWeightedStats::updateRun(double first, double last, std::int64_t n,
                             double sum, double lo_value, double hi_value,
                             double last_value)
{
    CHARLLM_ASSERT(n >= 0 && last >= first, "invalid run");
    update(first, last_value);
    if (n == 0)
        return;
    double span = last - first;
    if (span > 0.0) {
        weighted += sum * (span / static_cast<double>(n));
        totalTime += span;
        lo = std::min(lo, lo_value);
        hi = std::max(hi, hi_value);
    }
    lastTime = last;
}

void
TimeWeightedStats::restart(double time)
{
    bool had = hasSample;
    double value = lastValue;
    *this = TimeWeightedStats();
    if (had)
        update(time, value);
}

void
TimeWeightedStats::finish(double time)
{
    if (!hasSample)
        return;
    accumulate(time);
    lastTime = time;
}

double
TimeWeightedStats::mean() const
{
    return totalTime > 0.0 ? weighted / totalTime : lastValue;
}

} // namespace charllm
