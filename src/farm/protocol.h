/// \file
/// Wire protocol for out-of-process evaluation: every evaluation that
/// leaves the engine's address space travels in these frames, whether to
/// a gevo-workerd daemon over TCP or a Unix socket (--backend=remote) or
/// to a forked local worker over a socketpair (--backend=isolated).
///
/// Frame: u32 magic "GEVR" followed by one CRC record (support/bytes.h):
/// u32 payloadLen | u32 crc32(payload) | payload. The first payload byte
/// is the message type; results carry their FitnessResult in the shared
/// encoding (core::encodeFitness). A FrameReader
/// reassembles frames from arbitrary read() chunk boundaries (TCP does
/// not respect frames) and flags corruption — bad magic, oversized
/// length, CRC mismatch — without ever throwing or crashing: a
/// corrupted stream is a peer to disconnect from, not a bug.
///
/// Session shape: the client opens with Hello carrying the protocol
/// version and the trajectory-scope fingerprint (the variant-cache
/// scope: a hash of the baseline program content key and the fitness
/// name). The worker replies HelloOk or HelloReject — a daemon serving
/// a different workload/device/dataset must be rejected the way a
/// mismatched checkpoint is, or it would silently serve wrong fitness
/// values. After HelloOk, Eval/EvalResult pairs flow (pipelined;
/// results carry the request's sequence number), with Ping/Pong as the
/// idle-connection heartbeat.

#ifndef GEVO_FARM_PROTOCOL_H
#define GEVO_FARM_PROTOCOL_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/eval_backend.h"
#include "core/fitness.h"
#include "mutation/edit.h"
#include "support/bytes.h"

namespace gevo::farm {

/// Bumped on any wire-format change; mismatched peers reject at Hello.
/// v2 replaced EvalReply's single fitness scalar with the objective
/// vector.
constexpr std::uint32_t kFarmProtocolVersion = 2;

/// Frame header: u32 magic | u32 payloadLen | u32 crc32(payload).
constexpr std::uint32_t kFrameMagic = 0x52564547u; // "GEVR"
constexpr std::size_t kFrameHeader = 4 + kRecordHeader;
/// Sanity bound on one payload (edit lists, fail reasons and program
/// keys are at most tens of KB); anything larger is corruption.
constexpr std::size_t kMaxFramePayload = kMaxRecordPayload;

enum class MsgType : std::uint8_t {
    Hello = 1,
    HelloOk = 2,
    HelloReject = 3,
    Eval = 4,
    EvalResult = 5,
    Ping = 6,
    Pong = 7,
};

/// Append one complete frame (header + payload) to \p out.
void appendFrame(std::string* out, std::string_view payload);

/// Frame \p payload and write it to \p fd. False when the peer is gone.
bool sendFrame(int fd, std::string_view payload);

/// Incremental frame reassembly from arbitrary chunk boundaries.
class FrameReader {
  public:
    enum class Status {
        NeedMore, ///< No complete frame buffered yet.
        Frame,    ///< *payload holds the next frame's payload.
        Corrupt,  ///< Bad magic / oversized length / CRC mismatch.
    };

    /// Buffer \p n more received bytes.
    void push(const char* data, std::size_t n) { buf_.append(data, n); }

    /// Extract the next complete frame, if any. After Corrupt the stream
    /// is unrecoverable (framing is lost); the caller must drop the
    /// connection.
    Status next(std::string* payload);

    /// Bytes buffered but not yet consumed (a non-empty residue at EOF
    /// means the peer died mid-frame).
    std::size_t pending() const { return buf_.size(); }

    void reset() { buf_.clear(); }

  private:
    std::string buf_;
};

// ---- message payloads ----

/// Client → worker session opener.
struct HelloMsg {
    std::uint32_t version = kFarmProtocolVersion;
    std::uint64_t scope = 0;     ///< Trajectory-scope fingerprint.
    std::uint32_t timeoutMs = 0; ///< Client's per-evaluation deadline.
};

/// Client → worker evaluation request. Edits travel in the textual
/// serializeEdits encoding (round-trips every field, including assigned
/// value uids — mutation/edit.h).
struct EvalRequest {
    std::uint64_t seq = 0;  ///< Echoed in the reply; pairs pipelined RPCs.
    bool useCache = false;  ///< False = compile-per-call reference path.
    std::vector<mut::Edit> edits;
};

/// Worker → client evaluation result: the EvalOutcome fields plus the
/// program content key of a fresh simulation (the client replays the
/// insert into its live cache).
struct EvalReply {
    std::uint64_t seq = 0;
    core::EvalOutcome outcome;
    std::string programKey;
};

std::string encodeHello(const HelloMsg& msg);
std::string encodeHelloOk(std::string_view description);
std::string encodeHelloReject(std::string_view reason);
std::string encodeEvalRequest(const EvalRequest& req);
std::string encodeEvalReply(const EvalReply& reply);
std::string encodePing(std::uint64_t nonce);
std::string encodePong(std::uint64_t nonce);

/// Type of a received payload (MsgType{0} when the payload is empty).
MsgType payloadType(std::string_view payload);

/// Decoders: false on any truncation or trailing bytes (a structurally
/// invalid message from a handshaken peer is a protocol error).
bool decodeHello(std::string_view payload, HelloMsg* out);
bool decodeHelloOk(std::string_view payload, std::string* description);
bool decodeHelloReject(std::string_view payload, std::string* reason);
bool decodeEvalRequest(std::string_view payload, EvalRequest* out);
bool decodeEvalReply(std::string_view payload, EvalReply* out);
bool decodePing(std::string_view payload, std::uint64_t* nonce);
bool decodePong(std::string_view payload, std::uint64_t* nonce);

/// The trajectory-scope fingerprint both endpoints hash independently:
/// the variant-cache scope formula (baseline program content key +
/// fitness name — core/engine.cpp uses the same for persistent cache
/// files). Identical scope ⇒ identical baseline module, device model and
/// dataset, so remote results are interchangeable with local ones.
std::uint64_t trajectoryScope(const core::VariantCompiler& compiler,
                              const core::FitnessFunction& fitness);

} // namespace gevo::farm

#endif // GEVO_FARM_PROTOCOL_H
