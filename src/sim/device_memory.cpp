#include "sim/device_memory.h"

namespace gevo::sim {

DeviceMemory::DeviceMemory(std::int64_t bytes)
{
    GEVO_ASSERT(bytes > 0, "empty arena");
    data_.assign(static_cast<std::size_t>(bytes), 0);
}

DevPtr
DeviceMemory::alloc(std::int64_t bytes)
{
    GEVO_ASSERT(bytes >= 0, "negative allocation");
    const DevPtr ptr = used_;
    std::int64_t padded = (bytes + kAlign - 1) / kAlign * kAlign;
    if (used_ + padded > capacity())
        GEVO_FATAL("device arena exhausted: %lld + %lld > %lld",
                   static_cast<long long>(used_),
                   static_cast<long long>(padded),
                   static_cast<long long>(capacity()));
    used_ += padded;
    return ptr;
}

void
DeviceMemory::reset()
{
    used_ = 0;
    std::fill(data_.begin(), data_.end(), 0);
}

} // namespace gevo::sim
