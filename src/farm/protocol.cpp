#include "farm/protocol.h"

#include "core/variant_cache.h"
#include "support/bytes.h"
#include "support/io.h"

namespace gevo::farm {

void
appendFrame(std::string* out, std::string_view payload)
{
    appendLeU32(out, kFrameMagic);
    appendRecord(out, payload);
}

bool
sendFrame(int fd, std::string_view payload)
{
    std::string frame;
    appendFrame(&frame, payload);
    return writeAll(fd, frame.data(), frame.size());
}

FrameReader::Status
FrameReader::next(std::string* payload)
{
    if (buf_.size() < kFrameHeader)
        return Status::NeedMore;
    if (readLeU32(buf_.data()) != kFrameMagic)
        return Status::Corrupt;
    std::size_t pos = 4;
    std::string_view body;
    switch (readRecord(buf_, &pos, &body)) {
      case RecordStatus::Truncated:
        return Status::NeedMore;
      case RecordStatus::Corrupt:
        return Status::Corrupt;
      case RecordStatus::Ok:
        break;
    }
    payload->assign(body);
    buf_.erase(0, pos);
    return Status::Frame;
}

namespace {

bool
expectType(ByteReader* in, MsgType want)
{
    std::uint8_t t = 0;
    return in->u8(&t) && t == static_cast<std::uint8_t>(want);
}

} // namespace

std::string
encodeHello(const HelloMsg& msg)
{
    std::string p;
    p.push_back(static_cast<char>(MsgType::Hello));
    appendLeU32(&p, msg.version);
    appendLeU64(&p, msg.scope);
    appendLeU32(&p, msg.timeoutMs);
    return p;
}

std::string
encodeHelloOk(std::string_view description)
{
    std::string p;
    p.push_back(static_cast<char>(MsgType::HelloOk));
    appendString(&p, description);
    return p;
}

std::string
encodeHelloReject(std::string_view reason)
{
    std::string p;
    p.push_back(static_cast<char>(MsgType::HelloReject));
    appendString(&p, reason);
    return p;
}

std::string
encodeEvalRequest(const EvalRequest& req)
{
    std::string p;
    p.push_back(static_cast<char>(MsgType::Eval));
    appendLeU64(&p, req.seq);
    p.push_back(req.useCache ? 1 : 0);
    appendString(&p, mut::serializeEdits(req.edits));
    return p;
}

std::string
encodeEvalReply(const EvalReply& reply)
{
    std::string p;
    p.push_back(static_cast<char>(MsgType::EvalResult));
    appendLeU64(&p, reply.seq);
    core::encodeFitness(&p, reply.outcome.result);
    p.push_back(reply.outcome.simulated ? 1 : 0);
    p.push_back(reply.outcome.rejected ? 1 : 0);
    appendString(&p, reply.programKey);
    return p;
}

std::string
encodePing(std::uint64_t nonce)
{
    std::string p;
    p.push_back(static_cast<char>(MsgType::Ping));
    appendLeU64(&p, nonce);
    return p;
}

std::string
encodePong(std::uint64_t nonce)
{
    std::string p;
    p.push_back(static_cast<char>(MsgType::Pong));
    appendLeU64(&p, nonce);
    return p;
}

MsgType
payloadType(std::string_view payload)
{
    if (payload.empty())
        return MsgType{0};
    return static_cast<MsgType>(static_cast<std::uint8_t>(payload[0]));
}

bool
decodeHello(std::string_view payload, HelloMsg* out)
{
    ByteReader c(payload);
    return expectType(&c, MsgType::Hello) && c.u32(&out->version) &&
           c.u64(&out->scope) && c.u32(&out->timeoutMs) && c.done();
}

bool
decodeHelloOk(std::string_view payload, std::string* description)
{
    ByteReader c(payload);
    return expectType(&c, MsgType::HelloOk) && c.str(description) &&
           c.done();
}

bool
decodeHelloReject(std::string_view payload, std::string* reason)
{
    ByteReader c(payload);
    return expectType(&c, MsgType::HelloReject) && c.str(reason) && c.done();
}

bool
decodeEvalRequest(std::string_view payload, EvalRequest* out)
{
    ByteReader c(payload);
    std::string editsText;
    if (!expectType(&c, MsgType::Eval) || !c.u64(&out->seq) ||
        !c.flag(&out->useCache) || !c.str(&editsText) || !c.done())
        return false;
    return mut::deserializeEdits(editsText, &out->edits);
}

bool
decodeEvalReply(std::string_view payload, EvalReply* out)
{
    ByteReader c(payload);
    out->outcome.failure = core::EvalFailure::None;
    return expectType(&c, MsgType::EvalResult) && c.u64(&out->seq) &&
           core::decodeFitness(&c, &out->outcome.result) &&
           c.flag(&out->outcome.simulated) &&
           c.flag(&out->outcome.rejected) && c.str(&out->programKey) &&
           c.done();
}

bool
decodePing(std::string_view payload, std::uint64_t* nonce)
{
    ByteReader c(payload);
    return expectType(&c, MsgType::Ping) && c.u64(nonce) && c.done();
}

bool
decodePong(std::string_view payload, std::uint64_t* nonce)
{
    ByteReader c(payload);
    return expectType(&c, MsgType::Pong) && c.u64(nonce) && c.done();
}

std::uint64_t
trajectoryScope(const core::VariantCompiler& compiler,
                const core::FitnessFunction& fitness)
{
    const core::CompiledVariant baseline = compiler.compile({});
    std::uint64_t scope = core::VariantCache::hashKey(
        baseline.programs.contentKey() + '\n' + fitness.name());
    if (scope == 0) // 0 means "unchecked" to scope comparators.
        scope = 1;
    return scope;
}

} // namespace gevo::farm
