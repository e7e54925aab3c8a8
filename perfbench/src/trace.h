/// \file
/// Benchmark-owned tracing: a span log in shared memory and a
/// FitnessFunction decorator that records one span per call.
///
/// The log lives in an anonymous MAP_SHARED mapping created before the
/// search starts, so the isolated backend's forked workers append to the
/// same buffer as in-process pool threads. Spans are timed with
/// CLOCK_MONOTONIC (std::chrono::steady_clock), which every process on
/// the host shares, so parent and worker spans line up on one time axis.
/// Nothing is written to disk while the search runs.

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/fitness.h"

namespace perfbench {

/// Nanoseconds on the host-wide monotonic clock.
std::int64_t nowNs();

enum class SpanKind : std::uint8_t {
    Request, ///< One fitness request as the engine sees it (evaluate).
    Sim,     ///< One simulation on one device (inner evaluate/evaluateOn).
    Profile, ///< One profileVariant call (guided-sampler elite profile).
};

/// Why a scored variant is invalid.
enum class FailClass : std::uint8_t {
    None,   ///< Valid.
    Budget, ///< Hit the simulator's per-warp instruction budget.
    Other,  ///< Wrong output, memory fault, or another launch fault.
};

struct Span {
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    double simMs = 0.0; ///< Simulated time when valid.
    std::int32_t tid = 0;
    SpanKind kind = SpanKind::Request;
    bool valid = false;
    FailClass fail = FailClass::None;
};

/// Fixed-capacity span buffer in shared memory. Appends are lock-free
/// and safe from any thread of any process forked after construction;
/// spans past the capacity are counted as dropped, never written.
class SpanLog {
  public:
    explicit SpanLog(std::size_t capacity);
    ~SpanLog();
    SpanLog(const SpanLog&) = delete;
    SpanLog& operator=(const SpanLog&) = delete;

    void append(const Span& span);
    /// Copy of every recorded span (call once no writer is running).
    std::vector<Span> spans() const;
    std::uint64_t dropped() const;

  private:
    struct Header {
        std::atomic<std::uint64_t> next;
    };
    std::size_t capacity_ = 0;
    std::size_t bytes_ = 0;
    void* base_ = nullptr;
    Header* header_ = nullptr;
    Span* slots_ = nullptr;
};

/// Decorator recording a span per evaluate / evaluateOn / profileVariant
/// call. Results pass through untouched and name() is the inner name,
/// so cache and checkpoint scopes, and the trajectory, are unchanged.
class TracingFitness final : public gevo::core::FitnessFunction {
  public:
    /// \p kind labels evaluate spans (Request for the decorator the
    /// engine calls, Sim for one wrapped inside a portfolio); evaluateOn
    /// spans are always Sim.
    TracingFitness(const gevo::core::FitnessFunction& inner, SpanLog& log,
                   SpanKind kind)
        : inner_(inner), log_(log), kind_(kind)
    {
    }

    gevo::core::FitnessResult
    evaluate(const gevo::core::CompiledVariant& variant) const override;
    gevo::core::FitnessResult
    evaluateOn(const gevo::core::CompiledVariant& variant,
               const gevo::sim::DeviceConfig& dev) const override;
    bool profileVariant(const gevo::core::CompiledVariant& variant,
                        gevo::core::ProfileSummary* out) const override;
    std::string name() const override { return inner_.name(); }

  private:
    void record(SpanKind kind, std::int64_t start,
                const gevo::core::FitnessResult* result) const;

    const gevo::core::FitnessFunction& inner_;
    SpanLog& log_;
    SpanKind kind_;
};

/// True when \p result failed on the simulator's instruction budget.
bool isBudgetTimeout(const gevo::core::FitnessResult& result);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
