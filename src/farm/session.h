/// \file
/// One farm worker connection: handshake, then serve Eval requests until
/// the peer goes away. Runs in a short-lived child process — forked per
/// accepted connection by the WorkerServer (farm/server.h), or per batch
/// by the isolated backend (farm/client.cpp) — so a crashing or hanging
/// variant takes down only the session; the client redials a fresh one.

#ifndef GEVO_FARM_SESSION_H
#define GEVO_FARM_SESSION_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/fault_inject.h"
#include "core/fitness.h"
#include "core/variant_cache.h"
#include "farm/protocol.h"

namespace gevo::farm {

class WorkerSession {
  public:
    /// \p compiler and \p fitness must outlive the session. \p scope is
    /// the worker's trajectory-scope fingerprint (protocol.h); a Hello
    /// carrying any other scope is rejected. \p banner is echoed in
    /// HelloOk for client-side logs. \p cache serves requests that ask
    /// for the cached path (null: every request takes the
    /// compile-per-call path); entries are values of the deterministic
    /// fitness function, so hits and misses score identically. \p faults
    /// is the injected-fault schedule (core/fault_inject.h), parsed by
    /// the process that forks the session.
    WorkerSession(const core::VariantCompiler& compiler,
                  const core::FitnessFunction& fitness, std::uint64_t scope,
                  std::string banner, core::VariantCache* cache = nullptr,
                  std::vector<core::FaultSpec> faults = {});

    /// Serve one connection until EOF, error, or corruption. Never
    /// throws and never exits the process on peer misbehavior (a peer
    /// closing mid-frame just ends the session); an injected crash/hang
    /// fault or a hostile variant may well kill the process — that is
    /// the failure mode the client's redispatch exists to absorb.
    void serve(int fd);

    std::size_t served() const { return served_; }

  private:
    bool handshake(int fd, FrameReader* reader);
    /// False ends the session (peer gone / corrupt stream).
    bool handleEval(int fd, const std::string& payload);

    const core::VariantCompiler& compiler_;
    const core::FitnessFunction& fitness_;
    std::uint64_t scope_;
    std::string banner_;
    core::VariantCache* cache_;
    std::vector<core::FaultSpec> faults_;
    std::uint32_t clientTimeoutMs_ = 0;
    std::size_t served_ = 0;
};

} // namespace gevo::farm

#endif // GEVO_FARM_SESSION_H
