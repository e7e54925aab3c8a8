#include "farm/session.h"

#include <cerrno>

#include <time.h>
#include <unistd.h>

#include "core/eval_backend.h"
#include "support/io.h"
#include "support/logging.h"
#include "support/strings.h"

namespace gevo::farm {

namespace {

void
sleepMs(std::uint64_t ms)
{
    struct timespec ts;
    ts.tv_sec = static_cast<time_t>(ms / 1000);
    ts.tv_nsec = static_cast<long>((ms % 1000) * 1000000);
    while (nanosleep(&ts, &ts) != 0 && errno == EINTR) {
    }
}

} // namespace

WorkerSession::WorkerSession(const core::VariantCompiler& compiler,
                             const core::FitnessFunction& fitness,
                             std::uint64_t scope, std::string banner,
                             core::VariantCache* cache,
                             std::vector<core::FaultSpec> faults)
    : compiler_(compiler), fitness_(fitness), scope_(scope),
      banner_(std::move(banner)), cache_(cache), faults_(std::move(faults))
{
}

bool
WorkerSession::handshake(int fd, FrameReader* reader)
{
    // The opener must be a well-formed Hello with our exact protocol
    // version and trajectory scope; anything else gets a reject frame
    // (best effort) and a closed connection. Serving a mismatched
    // client would return fitness values from a different baseline —
    // the same silent poison a mismatched checkpoint or cache file is
    // rejected for.
    std::string payload;
    for (;;) {
        switch (reader->next(&payload)) {
          case FrameReader::Status::Frame: {
            HelloMsg hello;
            if (!decodeHello(payload, &hello)) {
                sendFrame(fd, encodeHelloReject("expected Hello"));
                return false;
            }
            if (hello.version != kFarmProtocolVersion) {
                sendFrame(fd, encodeHelloReject(strformat(
                                  "protocol version %u, worker speaks %u",
                                  hello.version, kFarmProtocolVersion)));
                return false;
            }
            if (hello.scope != scope_) {
                sendFrame(fd,
                          encodeHelloReject(strformat(
                              "trajectory scope %016llx does not match "
                              "worker scope %016llx (different baseline/"
                              "fitness/device)",
                              static_cast<unsigned long long>(hello.scope),
                              static_cast<unsigned long long>(scope_))));
                return false;
            }
            clientTimeoutMs_ = hello.timeoutMs;
            return sendFrame(fd, encodeHelloOk(banner_));
          }
          case FrameReader::Status::Corrupt:
            return false;
          case FrameReader::Status::NeedMore:
            break;
        }
        char tmp[4096];
        const ssize_t r = ::read(fd, tmp, sizeof(tmp));
        if (r < 0 && errno == EINTR)
            continue;
        if (r <= 0)
            return false; // Peer gone before (or mid-) Hello.
        reader->push(tmp, static_cast<std::size_t>(r));
    }
}

bool
WorkerSession::handleEval(int fd, const std::string& payload)
{
    EvalRequest req;
    if (!decodeEvalRequest(payload, &req))
        return false; // Undecodable from a handshaken peer: drop them.

    if (const auto fault = core::faultFor(faults_, req.seq)) {
        switch (*fault) {
          case core::FaultKind::Crash:
            core::faultCrash();
          case core::FaultKind::Hang:
            core::faultHang();
          case core::FaultKind::Garbage: {
            static constexpr char junk[] =
                "these bytes are not a response frame";
            writeAll(fd, junk, sizeof(junk));
            return false;
          }
          case core::FaultKind::Disconnect:
            return false; // Close instead of replying.
          case core::FaultKind::Truncate: {
            // Half a frame, then close: the mid-frame peer-loss path.
            EvalReply reply;
            reply.seq = req.seq;
            reply.outcome.result =
                core::FitnessResult::fail("truncated by fault injection");
            std::string frame;
            appendFrame(&frame, encodeEvalReply(reply));
            writeAll(fd, frame.data(), frame.size() / 2);
            return false;
          }
          case core::FaultKind::Delay:
            // Outlive the client's per-evaluation deadline, then reply
            // normally (the write fails if the client already hung up).
            sleepMs(static_cast<std::uint64_t>(clientTimeoutMs_) * 2 + 250);
            break;
        }
    }

    // Self-watchdog: a variant that wedges the simulator must not leave
    // a zombie session pinning the CPU after the client's deadline has
    // already written the evaluation off. SIGALRM's default action
    // kills the process; twice the client budget leaves the client-side
    // watchdog authoritative.
    if (clientTimeoutMs_ > 0)
        ::alarm(static_cast<unsigned>(clientTimeoutMs_ * 2 / 1000 + 2));
    EvalReply reply;
    reply.seq = req.seq;
    core::VariantCache* cache = req.useCache ? cache_ : nullptr;
    reply.outcome = core::evaluateTask(compiler_, fitness_, req.edits, cache,
                                       cache ? &reply.programKey : nullptr);
    ::alarm(0);
    ++served_;
    return sendFrame(fd, encodeEvalReply(reply));
}

void
WorkerSession::serve(int fd)
{
    FrameReader reader;
    if (!handshake(fd, &reader))
        return;
    std::string payload;
    for (;;) {
        switch (reader.next(&payload)) {
          case FrameReader::Status::Frame:
            switch (payloadType(payload)) {
              case MsgType::Eval:
                if (!handleEval(fd, payload))
                    return;
                continue;
              case MsgType::Ping: {
                std::uint64_t nonce = 0;
                if (!decodePing(payload, &nonce) ||
                    !sendFrame(fd, encodePong(nonce)))
                    return;
                continue;
              }
              default:
                return; // Unexpected type: drop the peer.
            }
          case FrameReader::Status::Corrupt:
            return;
          case FrameReader::Status::NeedMore:
            break;
        }
        char tmp[65536];
        const ssize_t r = ::read(fd, tmp, sizeof(tmp));
        if (r < 0 && errno == EINTR)
            continue;
        if (r <= 0)
            return; // EOF (possibly mid-frame) or error: session over.
        reader.push(tmp, static_cast<std::size_t>(r));
    }
}

} // namespace gevo::farm
