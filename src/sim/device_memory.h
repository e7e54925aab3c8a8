/// \file
/// Simulated device (global) memory: a bump allocator over a flat arena
/// with page-granular access mapping.
///
/// The mapping rule is what makes the paper's Sec VI-D reproducible: a
/// mutant that drops the SIMCoV grid boundary checks reads a few hundred
/// bytes past its arrays. Reads that land inside the *mapped* region
/// (neighbouring allocations, or the page-rounding slack after the last
/// allocation) return whatever bytes are there — harmless garbage, the
/// variant passes the small-grid fitness tests. Reads past the mapped end
/// fault — exactly what happens on the held-out large grid.

#ifndef GEVO_SIM_DEVICE_MEMORY_H
#define GEVO_SIM_DEVICE_MEMORY_H

#include <cstdint>
#include <cstring>
#include <vector>

#include "support/logging.h"

namespace gevo::sim {

/// Device pointer: byte offset into the arena (passed to kernels as i64).
using DevPtr = std::int64_t;

/// True when [addr, addr+size) lies inside [0, limit). Overflow-free: a
/// kernel-computed address near INT64_MAX would wrap `addr + size`
/// negative and pass a naive `addr + size <= limit` test. Every
/// simulated address space (global, shared, local) checks through this.
inline bool
inBounds(std::int64_t addr, std::int64_t size, std::int64_t limit)
{
    return addr >= 0 && size >= 0 && size <= limit && addr <= limit - size;
}

/// Simulated global memory.
class DeviceMemory {
  public:
    /// Allocation alignment (cudaMalloc-like).
    static constexpr std::int64_t kAlign = 256;
    /// Mapping granularity: accesses within the page-rounded extent of the
    /// allocated region are mapped.
    static constexpr std::int64_t kPage = 4096;

    /// Create an arena of \p bytes capacity.
    explicit DeviceMemory(std::int64_t bytes = 64ll << 20);

    /// Allocate \p bytes (256-byte aligned); fatal when the arena is full.
    DevPtr alloc(std::int64_t bytes);

    /// Reset the allocator and zero the arena.
    void reset();

    /// Bytes handed out so far (before page rounding).
    std::int64_t used() const { return used_; }
    /// End of the mapped region (page-rounded used()).
    std::int64_t
    mappedEnd() const
    {
        const std::int64_t rounded = (used_ + kPage - 1) / kPage * kPage;
        return rounded < capacity() ? rounded : capacity();
    }
    /// Arena capacity.
    std::int64_t capacity() const
    {
        return static_cast<std::int64_t>(data_.size());
    }

    /// True when [addr, addr+size) is mapped (readable/writable without a
    /// fault). Negative addresses are never mapped. Inline: the
    /// interpreter checks every global lane access through it.
    bool
    mapped(std::int64_t addr, std::int64_t size) const
    {
        return inBounds(addr, size, mappedEnd());
    }

    /// Raw arena bytes (host-side access for drivers and validators).
    std::uint8_t* raw() { return data_.data(); }
    const std::uint8_t* raw() const { return data_.data(); }

    // ---- typed host accessors (bounds-checked against the arena) ----

    /// Write a host buffer into device memory.
    void
    copyIn(DevPtr dst, const void* src, std::int64_t bytes)
    {
        GEVO_ASSERT(inBounds(dst, bytes, capacity()), "copyIn OOB");
        std::memcpy(data_.data() + dst, src, bytes);
    }
    /// Read device memory into a host buffer.
    void
    copyOut(void* dst, DevPtr src, std::int64_t bytes) const
    {
        GEVO_ASSERT(inBounds(src, bytes, capacity()), "copyOut OOB");
        std::memcpy(dst, data_.data() + src, bytes);
    }

    /// Host-side typed peek.
    template <typename T>
    T
    read(DevPtr addr) const
    {
        T v;
        copyOut(&v, addr, sizeof(T));
        return v;
    }
    /// Host-side typed poke.
    template <typename T>
    void
    write(DevPtr addr, T v)
    {
        copyIn(addr, &v, sizeof(T));
    }

  private:
    std::vector<std::uint8_t> data_;
    std::int64_t used_ = 0;
};

} // namespace gevo::sim

#endif // GEVO_SIM_DEVICE_MEMORY_H
