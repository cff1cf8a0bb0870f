#include "serve/wire.hpp"

#include <bit>
#include <cstring>

#include "common/error.hpp"

namespace eb::serve::wire {

namespace {

// ---- little-endian append helpers -----------------------------------------

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

// ---- bounds-checked reader ------------------------------------------------

// Sequential reader over one frame body. Every get_* checks the remaining
// byte count; `ok` latches false on the first underrun, and the getters
// return zeros from then on, so decode code can read linearly and check
// `ok` at the checkpoints.
struct Reader {
  const std::uint8_t* p;
  std::size_t remaining;
  bool ok = true;

  bool take(std::size_t n) {
    if (!ok || remaining < n) {
      ok = false;
      return false;
    }
    return true;
  }
  std::uint8_t get_u8() {
    if (!take(1)) {
      return 0;
    }
    const std::uint8_t v = p[0];
    p += 1;
    remaining -= 1;
    return v;
  }
  std::uint16_t get_u16() {
    if (!take(2)) {
      return 0;
    }
    std::uint16_t v = 0;
    for (int i = 0; i < 2; ++i) {
      v = static_cast<std::uint16_t>(v | (static_cast<std::uint16_t>(p[i])
                                          << (8 * i)));
    }
    p += 2;
    remaining -= 2;
    return v;
  }
  std::uint32_t get_u32() {
    if (!take(4)) {
      return 0;
    }
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    }
    p += 4;
    remaining -= 4;
    return v;
  }
  std::uint64_t get_u64() {
    if (!take(8)) {
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    }
    p += 8;
    remaining -= 8;
    return v;
  }
  double get_f64() { return std::bit_cast<double>(get_u64()); }
  void get_raw(void* dst, std::size_t n) {
    if (!take(n)) {
      return;
    }
    std::memcpy(dst, p, n);
    p += n;
    remaining -= n;
  }
  std::string get_bytes(std::size_t n) {
    if (!take(n)) {
      return {};
    }
    std::string s(reinterpret_cast<const char*>(p), n);
    p += n;
    remaining -= n;
    return s;
  }
};

void put_tensor(std::vector<std::uint8_t>& out, const bnn::Tensor& t) {
  EB_REQUIRE(t.rank() <= kMaxDims, "tensor rank exceeds wire limit");
  put_u8(out, static_cast<std::uint8_t>(t.rank()));
  for (std::size_t d = 0; d < t.rank(); ++d) {
    EB_REQUIRE(t.dim(d) <= UINT32_MAX, "tensor dim exceeds wire limit");
    put_u32(out, static_cast<std::uint32_t>(t.dim(d)));
  }
  if constexpr (std::endian::native == std::endian::little) {
    // The wire's little-endian IEEE-754 bytes are the tensor's own.
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(t.data());
    out.insert(out.end(), bytes, bytes + 8 * t.size());
  } else {
    for (std::size_t i = 0; i < t.size(); ++i) {
      put_f64(out, t[i]);
    }
  }
}

// Body bytes put_tensor writes for `t`.
std::size_t tensor_wire_bytes(const bnn::Tensor& t) {
  return 1 + 4 * t.rank() + 8 * t.size();
}

// Reads ndims + dims + payload. Returns false on rank/dims abuse or when
// the remaining body cannot hold the declared payload.
bool get_tensor(Reader& r, bnn::Tensor& t) {
  const std::uint8_t ndims = r.get_u8();
  if (!r.ok || ndims > kMaxDims) {
    return false;
  }
  std::vector<std::size_t> shape;
  shape.reserve(ndims);
  std::size_t elems = ndims == 0 ? 0 : 1;
  for (std::uint8_t d = 0; d < ndims; ++d) {
    const std::uint32_t dim = r.get_u32();
    if (!r.ok || dim == 0) {
      return false;
    }
    // Overflow-safe element count: the payload must fit in the remaining
    // body anyway, which kMaxFrameBytes bounds, so cap eagerly.
    if (elems > kMaxFrameBytes / 8 / dim) {
      return false;
    }
    elems *= dim;
    shape.push_back(dim);
  }
  if (!r.ok || r.remaining != elems * 8) {
    return false;  // payload must use exactly the rest of the body
  }
  if (ndims == 0) {
    t = bnn::Tensor();
    return true;
  }
  bnn::Tensor out(shape);
  if constexpr (std::endian::native == std::endian::little) {
    r.get_raw(out.data(), 8 * elems);
  } else {
    for (std::size_t i = 0; i < elems; ++i) {
      out[i] = r.get_f64();
    }
  }
  t = std::move(out);
  return r.ok;
}

// Parses the length prefix + common body header (magic, version, type).
// On success leaves `r` positioned after the type byte and sets
// `frame_size` to the whole frame's size.
DecodeStatus open_frame(const std::uint8_t* data, std::size_t size,
                        std::uint8_t want_type, Reader& r,
                        std::size_t& frame_size) {
  if (size < 4) {
    return DecodeStatus::kNeedMoreData;
  }
  std::uint32_t body_len = 0;
  for (int i = 0; i < 4; ++i) {
    body_len |= static_cast<std::uint32_t>(data[i]) << (8 * i);
  }
  if (body_len > kMaxFrameBytes) {
    return DecodeStatus::kTooLarge;
  }
  if (size < 4 + static_cast<std::size_t>(body_len)) {
    return DecodeStatus::kNeedMoreData;
  }
  frame_size = 4 + static_cast<std::size_t>(body_len);
  r = Reader{data + 4, body_len};
  const std::uint32_t magic = r.get_u32();
  if (!r.ok || magic != kMagic) {
    return DecodeStatus::kBadMagic;
  }
  const std::uint8_t version = r.get_u8();
  if (!r.ok || version != kVersion) {
    return DecodeStatus::kBadVersion;
  }
  const std::uint8_t type = r.get_u8();
  if (!r.ok || type != want_type) {
    return DecodeStatus::kBadType;
  }
  return DecodeStatus::kOk;
}

// Throws unless a body of `body_len` bytes fits one frame. Encoders that
// carry a tensor call it from the element count, before they allocate.
void check_frame_cap(std::size_t body_len) {
  EB_REQUIRE(body_len <= kMaxFrameBytes, "frame exceeds size cap");
}

// Writes the u32 length prefix into out[0..3] from the body that follows.
// The cap is checked on the full size_t length, before narrowing to u32.
void seal_frame(std::vector<std::uint8_t>& out) {
  check_frame_cap(out.size() - 4);
  const auto body_len = static_cast<std::uint32_t>(out.size() - 4);
  for (int i = 0; i < 4; ++i) {
    out[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(body_len >> (8 * i));
  }
}

}  // namespace

const char* to_string(DecodeStatus s) {
  switch (s) {
    case DecodeStatus::kOk:
      return "ok";
    case DecodeStatus::kNeedMoreData:
      return "need_more_data";
    case DecodeStatus::kBadMagic:
      return "bad_magic";
    case DecodeStatus::kBadVersion:
      return "bad_version";
    case DecodeStatus::kBadType:
      return "bad_type";
    case DecodeStatus::kTooLarge:
      return "too_large";
    case DecodeStatus::kMalformed:
      return "malformed";
  }
  EB_UNREACHABLE("unknown wire::DecodeStatus");
}

std::vector<std::uint8_t> encode_request(const RequestFrame& req) {
  EB_REQUIRE(!req.model_id.empty() && req.model_id.size() <= UINT16_MAX,
             "model id must be 1..65535 bytes");
  EB_REQUIRE(static_cast<std::size_t>(req.cls) < kNumClasses,
             "invalid deadline class");
  // magic, version, type, class, reserved, id, deadline, id_len, id.
  const std::size_t body =
      4 + 1 + 1 + 1 + 1 + 8 + 8 + 2 + req.model_id.size() +
      tensor_wire_bytes(req.tensor);
  check_frame_cap(body);
  std::vector<std::uint8_t> out;
  out.reserve(4 + body);
  put_u32(out, 0);  // length placeholder
  put_u32(out, kMagic);
  put_u8(out, kVersion);
  put_u8(out, kTypeRequest);
  put_u8(out, static_cast<std::uint8_t>(req.cls));
  put_u8(out, 0);  // reserved
  put_u64(out, req.request_id);
  put_u64(out, req.deadline_us);
  put_u16(out, static_cast<std::uint16_t>(req.model_id.size()));
  out.insert(out.end(), req.model_id.begin(), req.model_id.end());
  put_tensor(out, req.tensor);
  seal_frame(out);
  return out;
}

std::vector<std::uint8_t> encode_response(const ResponseFrame& resp) {
  const bool ok = resp.status == Status::kOk;
  // magic, version, type, status, reserved, id, queue_us, total_us.
  const std::size_t body = 4 + 1 + 1 + 1 + 1 + 8 + 8 + 8 +
                           (ok ? tensor_wire_bytes(resp.tensor) : 1);
  check_frame_cap(body);
  std::vector<std::uint8_t> out;
  out.reserve(4 + body);
  put_u32(out, 0);  // length placeholder
  put_u32(out, kMagic);
  put_u8(out, kVersion);
  put_u8(out, kTypeResponse);
  put_u8(out, static_cast<std::uint8_t>(resp.status));
  put_u8(out, 0);  // reserved
  put_u64(out, resp.request_id);
  put_f64(out, resp.queue_us);
  put_f64(out, resp.total_us);
  if (ok) {
    put_tensor(out, resp.tensor);
  } else {
    put_u8(out, 0);  // ndims = 0: no payload on non-ok responses
  }
  seal_frame(out);
  return out;
}

DecodeStatus decode_request(const std::uint8_t* data, std::size_t size,
                            RequestFrame& out, std::size_t& consumed) {
  consumed = 0;
  Reader r{nullptr, 0};
  std::size_t frame_size = 0;
  const DecodeStatus head = open_frame(data, size, kTypeRequest, r,
                                       frame_size);
  if (head != DecodeStatus::kOk) {
    // Header-level failures with a known boundary are still skippable.
    if (head != DecodeStatus::kNeedMoreData &&
        head != DecodeStatus::kTooLarge) {
      consumed = frame_size;
    }
    return head;
  }
  RequestFrame req;
  const std::uint8_t cls = r.get_u8();
  (void)r.get_u8();  // reserved
  req.request_id = r.get_u64();
  // The envelope through the id field decoded cleanly iff the reader is
  // still ok here: a content-malformed frame then still has a
  // trustworthy id for its error response (pipelined clients must be
  // able to match the kInvalidArgument to a request).
  const bool id_ok = r.ok;
  req.deadline_us = r.get_u64();
  const std::uint16_t id_len = r.get_u16();
  req.model_id = r.get_bytes(id_len);
  if (!r.ok || cls >= kNumClasses || id_len == 0 ||
      !get_tensor(r, req.tensor)) {
    consumed = frame_size;
    out.request_id = id_ok ? req.request_id : 0;
    return DecodeStatus::kMalformed;
  }
  req.cls = static_cast<DeadlineClass>(cls);
  out = std::move(req);
  consumed = frame_size;
  return DecodeStatus::kOk;
}

DecodeStatus decode_response(const std::uint8_t* data, std::size_t size,
                             ResponseFrame& out, std::size_t& consumed) {
  consumed = 0;
  Reader r{nullptr, 0};
  std::size_t frame_size = 0;
  const DecodeStatus head = open_frame(data, size, kTypeResponse, r,
                                       frame_size);
  if (head != DecodeStatus::kOk) {
    if (head != DecodeStatus::kNeedMoreData &&
        head != DecodeStatus::kTooLarge) {
      consumed = frame_size;
    }
    return head;
  }
  ResponseFrame resp;
  const std::uint8_t status = r.get_u8();
  (void)r.get_u8();  // reserved
  resp.request_id = r.get_u64();
  resp.queue_us = r.get_f64();
  resp.total_us = r.get_f64();
  if (!r.ok || status > static_cast<std::uint8_t>(Status::kInvalidArgument) ||
      !get_tensor(r, resp.tensor)) {
    consumed = frame_size;
    return DecodeStatus::kMalformed;
  }
  resp.status = static_cast<Status>(status);
  out = std::move(resp);
  consumed = frame_size;
  return DecodeStatus::kOk;
}

std::vector<std::uint8_t> encode_ping(const PingFrame& ping) {
  std::vector<std::uint8_t> out;
  out.reserve(20);
  put_u32(out, 0);  // length placeholder
  put_u32(out, kMagic);
  put_u8(out, kVersion);
  put_u8(out, kTypePing);
  put_u8(out, ping.pong ? 1 : 0);
  put_u8(out, 0);  // reserved
  put_u64(out, ping.nonce);
  seal_frame(out);
  return out;
}

DecodeStatus decode_ping(const std::uint8_t* data, std::size_t size,
                         PingFrame& out, std::size_t& consumed) {
  consumed = 0;
  Reader r{nullptr, 0};
  std::size_t frame_size = 0;
  const DecodeStatus head = open_frame(data, size, kTypePing, r, frame_size);
  if (head != DecodeStatus::kOk) {
    if (head != DecodeStatus::kNeedMoreData &&
        head != DecodeStatus::kTooLarge) {
      consumed = frame_size;
    }
    return head;
  }
  PingFrame p;
  const std::uint8_t kind = r.get_u8();
  (void)r.get_u8();  // reserved
  p.nonce = r.get_u64();
  if (!r.ok || kind > 1 || r.remaining != 0) {
    consumed = frame_size;
    return DecodeStatus::kMalformed;
  }
  p.pong = kind == 1;
  out = p;
  consumed = frame_size;
  return DecodeStatus::kOk;
}

std::vector<std::uint8_t> encode_stats(const StatsFrame& stats) {
  std::vector<std::uint8_t> out;
  out.reserve(96 + 48 * stats.models.size());
  put_u32(out, 0);  // length placeholder
  put_u32(out, kMagic);
  put_u8(out, kVersion);
  put_u8(out, kTypeStats);
  put_u8(out, stats.response ? 1 : 0);
  put_u8(out, 0);  // reserved
  put_u64(out, stats.request_id);
  if (stats.response) {
    put_u64(out, stats.submitted);
    put_u64(out, stats.completed);
    put_u64(out, stats.rejected);
    put_u64(out, stats.deadline_exceeded);
    put_u64(out, stats.errors);
    put_u64(out, stats.invalid);
    put_u64(out, stats.queue_depth);
    put_u64(out, stats.canaries_sent);
    put_u64(out, stats.canary_failures);
    put_u64(out, stats.rewrites);
    put_u64(out, stats.rewrite_us_last);
    EB_REQUIRE(stats.models.size() <= UINT16_MAX,
               "stats frame must hold <= 65535 models");
    put_u16(out, static_cast<std::uint16_t>(stats.models.size()));
    for (const auto& m : stats.models) {
      EB_REQUIRE(!m.id.empty() && m.id.size() <= UINT16_MAX,
                 "model id must be 1..65535 bytes");
      put_u16(out, static_cast<std::uint16_t>(m.id.size()));
      out.insert(out.end(), m.id.begin(), m.id.end());
      put_u64(out, m.input_size);
      put_u64(out, m.queue_depth);
      put_u64(out, m.completed);
    }
  }
  seal_frame(out);
  return out;
}

DecodeStatus decode_stats(const std::uint8_t* data, std::size_t size,
                          StatsFrame& out, std::size_t& consumed) {
  consumed = 0;
  Reader r{nullptr, 0};
  std::size_t frame_size = 0;
  const DecodeStatus head = open_frame(data, size, kTypeStats, r, frame_size);
  if (head != DecodeStatus::kOk) {
    if (head != DecodeStatus::kNeedMoreData &&
        head != DecodeStatus::kTooLarge) {
      consumed = frame_size;
    }
    return head;
  }
  StatsFrame s;
  const std::uint8_t kind = r.get_u8();
  (void)r.get_u8();  // reserved
  s.request_id = r.get_u64();
  if (!r.ok || kind > 1) {
    consumed = frame_size;
    return DecodeStatus::kMalformed;
  }
  if (kind == 0) {
    if (r.remaining != 0) {
      consumed = frame_size;
      return DecodeStatus::kMalformed;  // a request body ends after the id
    }
    out = std::move(s);
    consumed = frame_size;
    return DecodeStatus::kOk;
  }
  s.response = true;
  s.submitted = r.get_u64();
  s.completed = r.get_u64();
  s.rejected = r.get_u64();
  s.deadline_exceeded = r.get_u64();
  s.errors = r.get_u64();
  s.invalid = r.get_u64();
  s.queue_depth = r.get_u64();
  s.canaries_sent = r.get_u64();
  s.canary_failures = r.get_u64();
  s.rewrites = r.get_u64();
  s.rewrite_us_last = r.get_u64();
  const std::uint16_t count = r.get_u16();
  if (!r.ok) {
    consumed = frame_size;
    return DecodeStatus::kMalformed;
  }
  s.models.reserve(count);
  for (std::uint16_t i = 0; i < count; ++i) {
    StatsModel m;
    const std::uint16_t id_len = r.get_u16();
    m.id = r.get_bytes(id_len);
    m.input_size = r.get_u64();
    m.queue_depth = r.get_u64();
    m.completed = r.get_u64();
    if (!r.ok || id_len == 0) {
      consumed = frame_size;
      return DecodeStatus::kMalformed;
    }
    s.models.push_back(std::move(m));
  }
  if (r.remaining != 0) {
    consumed = frame_size;
    return DecodeStatus::kMalformed;  // trailing bytes after last model
  }
  out = std::move(s);
  consumed = frame_size;
  return DecodeStatus::kOk;
}

std::vector<std::uint8_t> encode_model_admin(const ModelAdminFrame& admin) {
  EB_REQUIRE(admin.model_id.size() <= UINT16_MAX,
             "model id must be <= 65535 bytes");
  EB_REQUIRE(admin.file.size() <= UINT16_MAX,
             "model file name must be <= 65535 bytes");
  std::vector<std::uint8_t> out;
  out.reserve(64 + admin.model_id.size() + admin.file.size() +
              admin.message.size() + 32 * admin.models.size());
  put_u32(out, 0);  // length placeholder
  put_u32(out, kMagic);
  put_u8(out, kVersion);
  put_u8(out, kTypeModelAdmin);
  put_u8(out, admin.response ? 1 : 0);
  put_u8(out, static_cast<std::uint8_t>(admin.op));
  put_u64(out, admin.request_id);
  put_u16(out, static_cast<std::uint16_t>(admin.model_id.size()));
  out.insert(out.end(), admin.model_id.begin(), admin.model_id.end());
  put_u16(out, static_cast<std::uint16_t>(admin.file.size()));
  out.insert(out.end(), admin.file.begin(), admin.file.end());
  if (admin.response) {
    put_u8(out, static_cast<std::uint8_t>(admin.status));
    EB_REQUIRE(admin.message.size() <= UINT16_MAX,
               "admin message must be <= 65535 bytes");
    put_u16(out, static_cast<std::uint16_t>(admin.message.size()));
    out.insert(out.end(), admin.message.begin(), admin.message.end());
    EB_REQUIRE(admin.models.size() <= UINT16_MAX,
               "admin frame must hold <= 65535 models");
    put_u16(out, static_cast<std::uint16_t>(admin.models.size()));
    for (const auto& id : admin.models) {
      EB_REQUIRE(!id.empty() && id.size() <= UINT16_MAX,
                 "model id must be 1..65535 bytes");
      put_u16(out, static_cast<std::uint16_t>(id.size()));
      out.insert(out.end(), id.begin(), id.end());
    }
  }
  seal_frame(out);
  return out;
}

DecodeStatus decode_model_admin(const std::uint8_t* data, std::size_t size,
                                ModelAdminFrame& out,
                                std::size_t& consumed) {
  consumed = 0;
  Reader r{nullptr, 0};
  std::size_t frame_size = 0;
  const DecodeStatus head = open_frame(data, size, kTypeModelAdmin, r,
                                       frame_size);
  if (head != DecodeStatus::kOk) {
    if (head != DecodeStatus::kNeedMoreData &&
        head != DecodeStatus::kTooLarge) {
      consumed = frame_size;
    }
    return head;
  }
  ModelAdminFrame a;
  const std::uint8_t kind = r.get_u8();
  const std::uint8_t op = r.get_u8();
  a.request_id = r.get_u64();
  const std::uint16_t id_len = r.get_u16();
  a.model_id = r.get_bytes(id_len);
  const std::uint16_t file_len = r.get_u16();
  a.file = r.get_bytes(file_len);
  if (!r.ok || kind > 1 ||
      op > static_cast<std::uint8_t>(ModelAdminOp::kList)) {
    consumed = frame_size;
    return DecodeStatus::kMalformed;
  }
  a.op = static_cast<ModelAdminOp>(op);
  if (kind == 0) {
    if (r.remaining != 0) {
      consumed = frame_size;
      return DecodeStatus::kMalformed;  // a request ends after the file
    }
    out = std::move(a);
    consumed = frame_size;
    return DecodeStatus::kOk;
  }
  a.response = true;
  const std::uint8_t status = r.get_u8();
  const std::uint16_t msg_len = r.get_u16();
  a.message = r.get_bytes(msg_len);
  const std::uint16_t count = r.get_u16();
  if (!r.ok ||
      status > static_cast<std::uint8_t>(Status::kInvalidArgument)) {
    consumed = frame_size;
    return DecodeStatus::kMalformed;
  }
  a.status = static_cast<Status>(status);
  a.models.reserve(count);
  for (std::uint16_t i = 0; i < count; ++i) {
    const std::uint16_t len = r.get_u16();
    std::string id = r.get_bytes(len);
    if (!r.ok || len == 0) {
      consumed = frame_size;
      return DecodeStatus::kMalformed;
    }
    a.models.push_back(std::move(id));
  }
  if (r.remaining != 0) {
    consumed = frame_size;
    return DecodeStatus::kMalformed;  // trailing bytes after last model
  }
  out = std::move(a);
  consumed = frame_size;
  return DecodeStatus::kOk;
}

DecodeStatus peek_type(const std::uint8_t* data, std::size_t size,
                       std::uint8_t& type_out) {
  if (size < 10) {  // prefix + magic + version + type
    return DecodeStatus::kNeedMoreData;
  }
  std::uint32_t body_len = 0;
  std::uint32_t magic = 0;
  for (int i = 0; i < 4; ++i) {
    body_len |= static_cast<std::uint32_t>(data[i]) << (8 * i);
    magic |= static_cast<std::uint32_t>(data[4 + i]) << (8 * i);
  }
  if (body_len > kMaxFrameBytes) {
    return DecodeStatus::kTooLarge;
  }
  if (magic != kMagic) {
    return DecodeStatus::kBadMagic;
  }
  if (data[8] != kVersion) {
    return DecodeStatus::kBadVersion;
  }
  type_out = data[9];
  return DecodeStatus::kOk;
}

}  // namespace eb::serve::wire
