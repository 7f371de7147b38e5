/**
 * @file
 * Unit conventions and raw conversion constants.
 *
 * The public physics APIs (hw, net, coll, telemetry) carry their
 * dimensions in the type system — see common/quantity.hh for the
 * Seconds/Watts/Joules/Celsius/Bytes/BytesPerSec/Flops/FlopsPerSec/
 * ClockRel wrappers and their literals (300.0_W, 1.5_GiB, 10.0_ms).
 * The constants below remain for internal model math on raw doubles
 * and for formatting at the CSV/trace/NVML boundaries.
 *
 * Conventions:
 *  - simulated time: nanoseconds, stored in sim::Tick (uint64_t);
 *    sim-clock TIMESTAMPS (points in time, e.g. nowSeconds()) are
 *    plain double seconds, while DURATIONS crossing a public API are
 *    typed Seconds
 *  - data volumes: Bytes; capacities and bandwidths follow the vendor
 *    datasheet convention of DECIMAL units (kGB = 1e9, kGBps = 1e9).
 *    kKiB/kMiB/kGiB exist for genuinely binary quantities only; an
 *    audit of all call sites (2026-08) found capacity/bandwidth specs
 *    consistently decimal, matching the datasheets they quote
 *  - bandwidth: BytesPerSec; NIC/IB rates quoted in Gbit/s convert
 *    via gbitPerSec() (or the _Gbps literal), which divides by 8
 *  - power: Watts; energy: Joules; temperature: Celsius (absolute,
 *    affine) and CelsiusDelta (differences); compute: Flops (double
 *    magnitude — aggregate counts overflow int64)
 *  - absolute clocks stay double GHz (a spec constant); the DVFS
 *    output is the typed relative clock ClockRel (1.0 = nominal)
 *  - the raw magnitude leaves the type system only through .value(),
 *    at output boundaries (CSV, Chrome trace, NVML facade, report
 *    structs); simcheck's unit-raw-double rule polices unit-suffixed
 *    raw doubles across src/
 */

#ifndef CHARLLM_COMMON_UNITS_HH
#define CHARLLM_COMMON_UNITS_HH

#include <cstdint>

namespace charllm {
namespace units {

// ---- data sizes -----------------------------------------------------------
constexpr double kKiB = 1024.0;
constexpr double kMiB = 1024.0 * kKiB;
constexpr double kGiB = 1024.0 * kMiB;
constexpr double kKB = 1e3;
constexpr double kMB = 1e6;
constexpr double kGB = 1e9;

// ---- bandwidth (bytes/second) --------------------------------------------
constexpr double kGBps = 1e9;

/** Convert a link rate quoted in Gbit/s to bytes/second. */
constexpr double
gbitPerSec(double gbit)
{
    return gbit * 1e9 / 8.0;
}

// ---- time -----------------------------------------------------------------
constexpr double kUs = 1e-6;
constexpr double kMs = 1e-3;

// ---- compute --------------------------------------------------------------
constexpr double kTFLOP = 1e12;
constexpr double kPFLOP = 1e15;

} // namespace units
} // namespace charllm

#endif // CHARLLM_COMMON_UNITS_HH
