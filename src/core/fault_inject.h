/// \file
/// Deterministic fault injection for the evaluation backends
/// (GEVO_FAULT_INJECT). Shared by the in-process backend
/// (core/eval_backend.cpp) and the worker session (farm/session.cpp) that
/// serves both the isolated backend's forks and remote daemons, so one
/// spec can drive every failure path.
///
/// Spec grammar: a comma-separated list of `kind@N` entries, firing when
/// the global evaluation sequence number equals N (or any later number
/// with a `+` suffix: `crash@5+`). Kinds:
///
///   crash      — the evaluating process raises SIGSEGV.
///   hang       — the evaluation sleeps until a watchdog kills it.
///   garbage    — a worker writes a malformed frame.
///   disconnect — a worker closes the connection instead of replying
///                (transport death, no process exit code).
///   delay      — a worker replies, but only after sleeping past the
///                client's per-evaluation deadline.
///   truncate   — a worker sends a partial frame, then closes
///                (mid-frame peer loss).
///
/// The frame-level kinds (garbage and below) are meaningless to the
/// in-process backend and are ignored there, so a single spec can drive
/// a test that compares backends. Malformed specs are fatal user errors —
/// a silently ignored fault spec would make a crash test vacuously green.

#ifndef GEVO_CORE_FAULT_INJECT_H
#define GEVO_CORE_FAULT_INJECT_H

#include <cstdint>
#include <optional>
#include <vector>

namespace gevo::core {

enum class FaultKind : std::uint8_t {
    Crash,
    Hang,
    Garbage,
    Disconnect,
    Delay,
    Truncate,
};

/// One injected fault: fire when the global evaluation sequence number
/// equals `at` (or any later number, with the "+" suffix).
struct FaultSpec {
    FaultKind kind = FaultKind::Crash;
    std::uint64_t at = 0;
    bool fromHere = false;
};

/// Parse GEVO_FAULT_INJECT from the environment. Empty/unset yields an
/// empty schedule; malformed specs are fatal.
std::vector<FaultSpec> parseFaultSpecs();

/// The fault scheduled for evaluation sequence number \p seq, if any.
std::optional<FaultKind> faultFor(const std::vector<FaultSpec>& specs,
                                  std::uint64_t seq);

/// A genuine invalid-access death, not a tidy abort(): the reaping path
/// under test is the one a wild pointer in a hostile mutant would take.
[[noreturn]] void faultCrash();

/// Sleep until something kills us (a watchdog — or nothing, when
/// injected into the in-process backend: hanging the host is the
/// failure mode the isolated/remote backends exist to contain).
[[noreturn]] void faultHang();

} // namespace gevo::core

#endif // GEVO_CORE_FAULT_INJECT_H
