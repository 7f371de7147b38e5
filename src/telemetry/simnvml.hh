/**
 * @file
 * A simulation-backed facade mirroring the subset of the NVML C API
 * the paper's modified Zeus uses (nvmlDeviceGetTemperature,
 * nvmlDeviceGetPowerUsage, nvmlDeviceGetClockInfo,
 * nvmlDeviceGetUtilizationRates). Real NVML is hardware-gated; this
 * shim keeps the telemetry call sites source-compatible so the same
 * collection code paths are exercised against the simulator.
 */

#ifndef CHARLLM_TELEMETRY_SIMNVML_HH
#define CHARLLM_TELEMETRY_SIMNVML_HH

#include <cstdint>

#include "hw/platform.hh"

namespace charllm {
namespace telemetry {
namespace simnvml {

/** NVML-style status codes. */
enum Return
{
    SIMNVML_SUCCESS = 0,
    SIMNVML_ERROR_INVALID_ARGUMENT = 2,
    SIMNVML_ERROR_NOT_FOUND = 6,
};

/** Opaque device handle (mirrors nvmlDevice_t). */
struct DeviceHandle
{
    const hw::Platform* platform = nullptr;
    int index = -1;
};

/** nvmlDeviceGetCount. */
Return deviceGetCount(const hw::Platform& platform,
                      unsigned int* count);

/** nvmlDeviceGetHandleByIndex. */
Return deviceGetHandleByIndex(const hw::Platform& platform,
                              unsigned int index,
                              DeviceHandle* handle);

/** nvmlDeviceGetTemperature (GPU sensor, degrees C). */
Return deviceGetTemperature(const DeviceHandle& handle,
                            unsigned int* temp_c);

/** nvmlDeviceGetPowerUsage (milliwatts, as NVML reports). */
Return deviceGetPowerUsage(const DeviceHandle& handle,
                           unsigned int* milliwatts);

/** nvmlDeviceGetClockInfo (SM clock, MHz). */
Return deviceGetClockInfo(const DeviceHandle& handle,
                          unsigned int* mhz);

/** nvmlDeviceGetTotalEnergyConsumption (millijoules). */
Return deviceGetTotalEnergyConsumption(const DeviceHandle& handle,
                                       std::uint64_t* millijoules);

} // namespace simnvml
} // namespace telemetry
} // namespace charllm

#endif // CHARLLM_TELEMETRY_SIMNVML_HH
