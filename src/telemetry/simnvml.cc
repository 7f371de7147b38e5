#include "telemetry/simnvml.hh"

#include <cmath>

namespace charllm {
namespace telemetry {
namespace simnvml {

namespace {

bool
valid(const DeviceHandle& handle)
{
    return handle.platform != nullptr && handle.index >= 0 &&
           handle.index < handle.platform->numGpus();
}

} // namespace

Return
deviceGetCount(const hw::Platform& platform, unsigned int* count)
{
    if (!count)
        return SIMNVML_ERROR_INVALID_ARGUMENT;
    *count = static_cast<unsigned int>(platform.numGpus());
    return SIMNVML_SUCCESS;
}

Return
deviceGetHandleByIndex(const hw::Platform& platform, unsigned int index,
                       DeviceHandle* handle)
{
    if (!handle)
        return SIMNVML_ERROR_INVALID_ARGUMENT;
    if (index >= static_cast<unsigned int>(platform.numGpus()))
        return SIMNVML_ERROR_NOT_FOUND;
    handle->platform = &platform;
    handle->index = static_cast<int>(index);
    return SIMNVML_SUCCESS;
}

Return
deviceGetTemperature(const DeviceHandle& handle, unsigned int* temp_c)
{
    if (!valid(handle) || !temp_c)
        return SIMNVML_ERROR_INVALID_ARGUMENT;
    *temp_c = static_cast<unsigned int>(std::lround(
        handle.platform->temperature(handle.index).value()));
    return SIMNVML_SUCCESS;
}

Return
deviceGetPowerUsage(const DeviceHandle& handle, unsigned int* milliwatts)
{
    if (!valid(handle) || !milliwatts)
        return SIMNVML_ERROR_INVALID_ARGUMENT;
    *milliwatts = static_cast<unsigned int>(std::lround(
        handle.platform->gpu(handle.index).power().value() * 1e3));
    return SIMNVML_SUCCESS;
}

Return
deviceGetClockInfo(const DeviceHandle& handle, unsigned int* mhz)
{
    if (!valid(handle) || !mhz)
        return SIMNVML_ERROR_INVALID_ARGUMENT;
    *mhz = static_cast<unsigned int>(
        std::lround(handle.platform->gpu(handle.index).clockGhz() *
                    1e3));
    return SIMNVML_SUCCESS;
}

Return
deviceGetTotalEnergyConsumption(const DeviceHandle& handle,
                                std::uint64_t* millijoules)
{
    if (!valid(handle) || !millijoules)
        return SIMNVML_ERROR_INVALID_ARGUMENT;
    *millijoules = static_cast<std::uint64_t>(
        handle.platform->gpu(handle.index).energyJoules().value() * 1e3);
    return SIMNVML_SUCCESS;
}

} // namespace simnvml
} // namespace telemetry
} // namespace charllm
