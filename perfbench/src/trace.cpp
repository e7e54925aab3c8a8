#include "trace.h"

#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <new>

#include "support/logging.h"

namespace perfbench {

using gevo::core::CompiledVariant;
using gevo::core::FitnessResult;

static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "the span index is shared across processes");

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

SpanLog::SpanLog(std::size_t capacity)
    : capacity_(capacity),
      bytes_(sizeof(Header) + capacity * sizeof(Span))
{
    base_ = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (base_ == MAP_FAILED)
        GEVO_FATAL("span log: mmap of %zu bytes failed: %s", bytes_,
                   std::strerror(errno));
    header_ = new (base_) Header{};
    header_->next.store(0);
    slots_ = reinterpret_cast<Span*>(static_cast<char*>(base_) +
                                     sizeof(Header));
}

SpanLog::~SpanLog()
{
    header_->~Header();
    ::munmap(base_, bytes_);
}

void
SpanLog::append(const Span& span)
{
    const std::uint64_t i =
        header_->next.fetch_add(1, std::memory_order_relaxed);
    if (i < capacity_)
        slots_[i] = span;
}

std::vector<Span>
SpanLog::spans() const
{
    const std::uint64_t n = header_->next.load(std::memory_order_acquire);
    return std::vector<Span>(slots_, slots_ + std::min<std::uint64_t>(
                                                  n, capacity_));
}

std::uint64_t
SpanLog::dropped() const
{
    const std::uint64_t n = header_->next.load(std::memory_order_acquire);
    return n > capacity_ ? n - capacity_ : 0;
}

bool
isBudgetTimeout(const FitnessResult& result)
{
    return !result.valid &&
           result.failReason.find("instruction budget") != std::string::npos;
}

void
TracingFitness::record(SpanKind kind, std::int64_t start,
                       const FitnessResult* result) const
{
    Span s;
    s.startNs = start;
    s.endNs = nowNs();
    s.tid = static_cast<std::int32_t>(::syscall(SYS_gettid));
    s.kind = kind;
    if (result != nullptr) {
        s.valid = result->valid;
        s.simMs = result->valid ? result->ms() : 0.0;
        s.fail = result->valid              ? FailClass::None
                 : isBudgetTimeout(*result) ? FailClass::Budget
                                            : FailClass::Other;
    }
    log_.append(s);
}

FitnessResult
TracingFitness::evaluate(const CompiledVariant& variant) const
{
    const std::int64_t start = nowNs();
    FitnessResult r = inner_.evaluate(variant);
    record(kind_, start, &r);
    return r;
}

FitnessResult
TracingFitness::evaluateOn(const CompiledVariant& variant,
                           const gevo::sim::DeviceConfig& dev) const
{
    const std::int64_t start = nowNs();
    FitnessResult r = inner_.evaluateOn(variant, dev);
    record(SpanKind::Sim, start, &r);
    return r;
}

bool
TracingFitness::profileVariant(const CompiledVariant& variant,
                               gevo::core::ProfileSummary* out) const
{
    const std::int64_t start = nowNs();
    const bool ok = inner_.profileVariant(variant, out);
    // A portfolio forwards profiling to its inner fitness; only the
    // outermost decorator records it, so one call is one span.
    if (kind_ == SpanKind::Request)
        record(SpanKind::Profile, start, nullptr);
    return ok;
}

} // namespace perfbench
