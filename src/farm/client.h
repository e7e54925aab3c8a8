/// \file
/// RemoteBackend: the one out-of-process transport on the
/// EvaluationBackend seam (core/eval_backend.h). Shards each
/// generation's batch across worker sessions over the framed protocol
/// (farm/protocol.h), committing results strictly by batch index no
/// matter which worker answers in what order — so a fault-free run is
/// trajectory-identical (byte-identical --dump-history) to the
/// in-process backend.
///
/// Two kinds of endpoint, one discipline:
///   - `--backend=remote`: gevo-workerd daemons at "host:port" or
///     "unix:/path", dialed at construction and kept across batches,
///     with two requests pipelined per connection.
///   - `--backend=isolated`: local forks. Dialing one is socketpair(2)
///     plus fork(); the child serves its end with a WorkerSession and
///     exits. Forks are dialed at batch start and killed and reaped at
///     batch end, so each serves a copy-on-write snapshot of the
///     caller's program cache; one request at a time each.
///
/// Failure discipline, all deterministic given a deterministic fault
/// schedule:
///   - Per-evaluation deadline (`--eval-timeout-ms`) measured on a
///     monotonic clock from the moment a request reaches the front of
///     its connection's pipeline.
///   - A worker death / CRC-corrupt frame / blown deadline strikes only
///     the request actively being evaluated (the pipeline front);
///     bystander in-flight requests are redispatched unpenalized.
///   - Two strikes settle the evaluation as a deterministic penalty
///     (core::failedEvaluation: WorkerCrash / ProtocolError /
///     WorkerTimeout) that the engine counts and quarantines. An injected
///     hang therefore costs two deadlines.
///   - Lost workers (and forks that fail to dial) are redialed with
///     exponential backoff; a worker whose handshake is rejected (wrong
///     trajectory scope or protocol version) is abandoned permanently.
///   - When every worker is gone, remaining evaluations degrade to
///     local in-process execution with a warning — the search finishes.
///     A task that already has a strike is penalized, never evaluated
///     in the engine's own address space.

#ifndef GEVO_FARM_CLIENT_H
#define GEVO_FARM_CLIENT_H

// The implementation lives behind core::makeRemoteBackend (declared in
// core/eval_backend.h and routed by makeBackend) so engine-layer code
// never includes farm headers; this header exists for farm-internal
// consumers and tests.

#include "core/eval_backend.h"

#endif // GEVO_FARM_CLIENT_H
