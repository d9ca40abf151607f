#include "serve/net/protocol.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>

namespace vibnn::serve::net
{

namespace
{

// Little-endian byte-by-byte codecs: portable, alignment-safe, and
// the float paths move raw bit patterns so values survive the trip
// bit-exactly.

void
putU8(std::vector<std::uint8_t> &buf, std::uint8_t v)
{
    buf.push_back(v);
}

void
putU16(std::vector<std::uint8_t> &buf, std::uint16_t v)
{
    buf.push_back(static_cast<std::uint8_t>(v));
    buf.push_back(static_cast<std::uint8_t>(v >> 8));
}

void
putU32(std::vector<std::uint8_t> &buf, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putU64(std::vector<std::uint8_t> &buf, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putF32(std::vector<std::uint8_t> &buf, float v)
{
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    putU32(buf, bits);
}

void
putF64(std::vector<std::uint8_t> &buf, double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    putU64(buf, bits);
}

/** Cursor over a received payload; every read checks bounds and trips
 *  a sticky failure flag instead of walking past the end. */
class Reader
{
  public:
    Reader(const std::uint8_t *data, std::size_t len)
        : data_(data), len_(len)
    {
    }

    bool ok() const { return ok_; }
    std::size_t remaining() const { return len_ - pos_; }

    std::uint8_t
    u8()
    {
        if (!take(1))
            return 0;
        return data_[pos_ - 1];
    }

    std::uint16_t
    u16()
    {
        if (!take(2))
            return 0;
        const std::uint8_t *p = data_ + pos_ - 2;
        return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
    }

    std::uint32_t
    u32()
    {
        if (!take(4))
            return 0;
        const std::uint8_t *p = data_ + pos_ - 4;
        std::uint32_t v = 0;
        for (int i = 3; i >= 0; --i)
            v = (v << 8) | p[i];
        return v;
    }

    std::uint64_t
    u64()
    {
        if (!take(8))
            return 0;
        const std::uint8_t *p = data_ + pos_ - 8;
        std::uint64_t v = 0;
        for (int i = 7; i >= 0; --i)
            v = (v << 8) | p[i];
        return v;
    }

    float
    f32()
    {
        const std::uint32_t bits = u32();
        float v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

    double
    f64()
    {
        const std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

    /** Bulk-read n floats into out (resized). */
    bool
    f32Block(std::vector<float> &out, std::size_t n)
    {
        if (!take(n * 4))
            return false;
        out.resize(n);
        const std::uint8_t *p = data_ + pos_ - n * 4;
        for (std::size_t i = 0; i < n; ++i) {
            std::uint32_t bits = 0;
            for (int b = 3; b >= 0; --b)
                bits = (bits << 8) | p[i * 4 + b];
            std::memcpy(&out[i], &bits, sizeof(float));
        }
        return true;
    }

    bool
    stringField(std::string &out, std::size_t max_len)
    {
        const std::uint32_t n = u32();
        if (!ok_ || n > max_len || !take(n))
            return fail();
        out.assign(reinterpret_cast<const char *>(data_ + pos_ - n),
                   n);
        return true;
    }

    /** After the last field: any trailing bytes mean a malformed (or
     *  version-skewed) frame, and must be rejected, not ignored. */
    bool
    expectEnd()
    {
        if (pos_ != len_)
            return fail();
        return ok_;
    }

  private:
    bool
    take(std::size_t n)
    {
        if (!ok_ || len_ - pos_ < n)
            return fail();
        pos_ += n;
        return true;
    }

    bool
    fail()
    {
        ok_ = false;
        return false;
    }

    const std::uint8_t *data_;
    std::size_t len_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

bool
decodeFailed(std::string &error, const char *what)
{
    error = std::string("malformed ") + what + " payload";
    return false;
}

void
putBytes(std::vector<std::uint8_t> &buf, const std::string &s)
{
    const auto *data =
        reinterpret_cast<const std::uint8_t *>(s.data());
    buf.insert(buf.end(), data, data + s.size());
}

} // namespace

// ------------------------------------------------------------- encoding

std::vector<std::uint8_t>
encodeFrame(FrameType type, const std::vector<std::uint8_t> &payload)
{
    std::vector<std::uint8_t> frame;
    frame.reserve(kFrameHeaderBytes + payload.size());
    putU32(frame, kMagic);
    putU8(frame, kVersion);
    putU8(frame, static_cast<std::uint8_t>(type));
    putU16(frame, 0); // reserved
    putU32(frame, static_cast<std::uint32_t>(payload.size()));
    frame.insert(frame.end(), payload.begin(), payload.end());
    return frame;
}

std::vector<std::uint8_t>
encodeClassifyRequest(const WireClassifyRequest &request)
{
    std::vector<std::uint8_t> payload;
    payload.reserve(28 + request.features.size() * 4);
    putU64(payload, request.id);
    putU32(payload, request.mcSamples);
    putU64(payload, static_cast<std::uint64_t>(request.deadlineMicros));
    putU16(payload, request.retryAttempt);
    putU32(payload, request.count);
    putU32(payload, request.dim);
    for (float v : request.features)
        putF32(payload, v);
    return encodeFrame(FrameType::ClassifyRequest, payload);
}

std::vector<std::uint8_t>
encodeClassifyResponse(const WireClassifyResponse &response)
{
    std::vector<std::uint8_t> payload;
    const std::size_t per_image = 4 + 4 + 1 + 4 + 8 + 8 +
        static_cast<std::size_t>(response.outDim) * 4;
    payload.reserve(36 + response.predictions.size() * per_image);
    putU64(payload, response.id);
    putU32(payload, response.mcSamples);
    putU32(payload, response.outDim);
    putF64(payload, response.meanRounds);
    putF64(payload, response.serverMicros);
    putU8(payload, response.flags);
    putU32(payload,
           static_cast<std::uint32_t>(response.predictions.size()));
    for (const WirePrediction &p : response.predictions) {
        putU32(payload, p.predicted);
        putU32(payload, p.achievedSamples);
        putU8(payload, p.exitReason);
        putF32(payload, p.confidence);
        putF64(payload, p.entropy);
        putF64(payload, p.mutualInformation);
        for (float v : p.probs)
            putF32(payload, v);
    }
    return encodeFrame(FrameType::ClassifyResponse, payload);
}

std::vector<std::uint8_t>
encodeError(const WireError &error)
{
    std::vector<std::uint8_t> payload;
    putU64(payload, error.id);
    putU32(payload, static_cast<std::uint32_t>(error.code));
    putU32(payload,
           static_cast<std::uint32_t>(error.message.size()));
    putBytes(payload, error.message);
    return encodeFrame(FrameType::Error, payload);
}

std::vector<std::uint8_t>
encodeMetricsResponse(const std::string &json)
{
    std::vector<std::uint8_t> payload;
    payload.reserve(4 + json.size());
    putU32(payload, static_cast<std::uint32_t>(json.size()));
    putBytes(payload, json);
    return encodeFrame(FrameType::MetricsResponse, payload);
}

// ------------------------------------------------------------- decoding

bool
decodeFrameHeader(const std::uint8_t *buf, FrameType &type,
                  std::uint32_t &payload_len, std::string &error)
{
    Reader reader(buf, kFrameHeaderBytes);
    const std::uint32_t magic = reader.u32();
    const std::uint8_t version = reader.u8();
    const std::uint8_t raw_type = reader.u8();
    (void)reader.u16(); // reserved
    const std::uint32_t len = reader.u32();
    if (!reader.ok()) {
        error = "short frame header";
        return false;
    }
    if (magic != kMagic) {
        error = "bad frame magic (not a vibnn-serve peer?)";
        return false;
    }
    if (version != kVersion) {
        error = "unsupported protocol version " +
            std::to_string(version);
        return false;
    }
    if (raw_type < static_cast<std::uint8_t>(
                       FrameType::ClassifyRequest) ||
        raw_type > static_cast<std::uint8_t>(FrameType::ShutdownAck)) {
        error = "unknown frame type " + std::to_string(raw_type);
        return false;
    }
    if (len > kMaxPayloadBytes) {
        error = "frame payload " + std::to_string(len) +
            " bytes exceeds the " +
            std::to_string(kMaxPayloadBytes) + "-byte cap";
        return false;
    }
    type = static_cast<FrameType>(raw_type);
    payload_len = len;
    error.clear();
    return true;
}

bool
decodeClassifyRequest(const std::uint8_t *payload, std::size_t len,
                      WireClassifyRequest &out, std::string &error)
{
    Reader reader(payload, len);
    out.id = reader.u64();
    out.mcSamples = reader.u32();
    out.deadlineMicros = static_cast<std::int64_t>(reader.u64());
    out.retryAttempt = reader.u16();
    out.count = reader.u32();
    out.dim = reader.u32();
    if (!reader.ok())
        return decodeFailed(error, "ClassifyRequest");
    // The request rules (image count, ensemble size, deadline cap) come
    // from the one shared definition; an unbounded deadline would be a
    // remotely triggerable dispatcher park, so it never gets past here.
    error = serve::requestRuleViolation(out.count, out.mcSamples,
                                        out.deadlineMicros);
    if (!error.empty())
        return false;
    if (out.count > kMaxImagesPerFrame || out.dim > kMaxImageDim) {
        error = "ClassifyRequest geometry exceeds protocol caps "
                "(count " +
            std::to_string(out.count) + ", dim " +
            std::to_string(out.dim) + ")";
        return false;
    }
    // count * dim fits uint64 (caps are 2^16 and 2^20) but not
    // necessarily size_t: on a 32-bit build a wrapped product would
    // pass expectEnd with fewer floats than count * dim and downstream
    // copies would read out of bounds.
    const std::uint64_t n64 = static_cast<std::uint64_t>(out.count) *
        static_cast<std::uint64_t>(out.dim);
    if (n64 > std::numeric_limits<std::size_t>::max() /
                  sizeof(float)) {
        error = "ClassifyRequest feature block is unaddressable on "
                "this platform";
        return false;
    }
    const std::size_t n = static_cast<std::size_t>(n64);
    if (!reader.f32Block(out.features, n) || !reader.expectEnd())
        return decodeFailed(error, "ClassifyRequest");
    error.clear();
    return true;
}

bool
decodeClassifyResponse(const std::uint8_t *payload, std::size_t len,
                       WireClassifyResponse &out, std::string &error)
{
    Reader reader(payload, len);
    out.id = reader.u64();
    out.mcSamples = reader.u32();
    out.outDim = reader.u32();
    out.meanRounds = reader.f64();
    out.serverMicros = reader.f64();
    out.flags = reader.u8();
    const std::uint32_t count = reader.u32();
    if (!reader.ok())
        return decodeFailed(error, "ClassifyResponse");
    if (count > kMaxImagesPerFrame || out.outDim > kMaxImageDim) {
        error = "ClassifyResponse geometry exceeds protocol caps";
        return false;
    }
    if ((out.flags & ~kResponseFlagDegraded) != 0) {
        // This build speaks protocol version 1 exactly; unknown flag
        // bits mean a version-skewed (or corrupted) peer.
        error = "ClassifyResponse carries unknown flag bits";
        return false;
    }
    out.predictions.resize(count);
    for (WirePrediction &p : out.predictions) {
        p.predicted = reader.u32();
        p.achievedSamples = reader.u32();
        p.exitReason = reader.u8();
        p.confidence = reader.f32();
        p.entropy = reader.f64();
        p.mutualInformation = reader.f64();
        if (!reader.f32Block(p.probs, out.outDim))
            return decodeFailed(error, "ClassifyResponse");
        if (p.exitReason > 3) {
            error = "ClassifyResponse carries an unknown exit reason";
            return false;
        }
    }
    if (!reader.expectEnd())
        return decodeFailed(error, "ClassifyResponse");
    error.clear();
    return true;
}

bool
decodeError(const std::uint8_t *payload, std::size_t len,
            WireError &out, std::string &error)
{
    Reader reader(payload, len);
    out.id = reader.u64();
    const std::uint32_t code = reader.u32();
    if (!reader.stringField(out.message, kMaxPayloadBytes) ||
        !reader.expectEnd())
        return decodeFailed(error, "Error");
    if (code < static_cast<std::uint32_t>(ErrorCode::Overloaded) ||
        code > static_cast<std::uint32_t>(ErrorCode::ShuttingDown)) {
        error = "Error frame carries an unknown code " +
            std::to_string(code);
        return false;
    }
    out.code = static_cast<ErrorCode>(code);
    error.clear();
    return true;
}

bool
decodeMetricsResponse(const std::uint8_t *payload, std::size_t len,
                      std::string &json, std::string &error)
{
    Reader reader(payload, len);
    if (!reader.stringField(json, kMaxPayloadBytes) ||
        !reader.expectEnd())
        return decodeFailed(error, "MetricsResponse");
    error.clear();
    return true;
}

// ------------------------------------------------------ socket framing

bool
writeFrame(const Socket &sock, FrameType type,
           const std::vector<std::uint8_t> &payload)
{
    const auto frame = encodeFrame(type, payload);
    return writeAll(sock, frame.data(), frame.size());
}

bool
readFrame(const Socket &sock, FrameType &type,
          std::vector<std::uint8_t> &payload, std::string &error)
{
    std::uint8_t header[kFrameHeaderBytes];
    if (!readExact(sock, header, sizeof header)) {
        error = "connection closed";
        return false;
    }
    std::uint32_t payload_len = 0;
    if (!decodeFrameHeader(header, type, payload_len, error))
        return false;
    payload.resize(payload_len);
    if (payload_len > 0 &&
        !readExact(sock, payload.data(), payload_len)) {
        error = "connection closed mid-frame";
        return false;
    }
    error.clear();
    return true;
}

FrameReadStatus
readFrameTimed(const Socket &sock, FrameType &type,
               std::vector<std::uint8_t> &payload, std::string &error,
               std::int64_t timeout_millis)
{
    if (timeout_millis <= 0)
        return readFrame(sock, type, payload, error)
                   ? FrameReadStatus::Ok
                   : FrameReadStatus::Failed;
    using Clock = std::chrono::steady_clock;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(timeout_millis);
    const auto remaining = [&]() -> std::int64_t {
        return std::chrono::duration_cast<std::chrono::milliseconds>(
                   deadline - Clock::now())
            .count();
    };
    std::uint8_t header[kFrameHeaderBytes];
    switch (readExactTimed(sock, header, sizeof header,
                           std::max<std::int64_t>(remaining(), 1))) {
    case IoStatus::Ok:
        break;
    case IoStatus::Timeout:
        error = "receive deadline expired";
        return FrameReadStatus::Timeout;
    case IoStatus::Closed:
        error = "connection closed";
        return FrameReadStatus::Failed;
    }
    std::uint32_t payload_len = 0;
    if (!decodeFrameHeader(header, type, payload_len, error))
        return FrameReadStatus::Failed;
    payload.resize(payload_len);
    if (payload_len > 0) {
        switch (readExactTimed(
            sock, payload.data(), payload_len,
            std::max<std::int64_t>(remaining(), 1))) {
        case IoStatus::Ok:
            break;
        case IoStatus::Timeout:
            error = "receive deadline expired mid-frame";
            return FrameReadStatus::Timeout;
        case IoStatus::Closed:
            error = "connection closed mid-frame";
            return FrameReadStatus::Failed;
        }
    }
    error.clear();
    return FrameReadStatus::Ok;
}

} // namespace vibnn::serve::net
