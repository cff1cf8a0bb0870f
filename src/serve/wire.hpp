/// \file
/// \brief The gateway's framed wire protocol: length-prefixed binary
/// request/response frames with bounds-checked encode/decode and request
/// pipelining.
///
/// Every frame is a 4-byte little-endian body length followed by the body:
///
///     ┌────────────┬─────────────────────────────────────────────────┐
///     │ u32 length │ body (length bytes)                             │
///     └────────────┴─────────────────────────────────────────────────┘
///     body (request, type = 1):
///     ┌───────────┬────────┬──────┬───────┬──────────┬───────────────┐
///     │ u32 MAGIC │ u8 ver │ u8 1 │ u8 cls│ u8 rsvd  │ u64 request_id│
///     ├───────────┴───────┬┴──────┴───────┴─┬────────┴──┬────────────┤
///     │ u64 deadline_us   │ u16 id_len + id │ u8 ndims  │ u32 dims[] │
///     ├───────────────────┴─────────────────┴───────────┴────────────┤
///     │ f64 payload[prod(dims)]  (IEEE-754 bit pattern, LE)          │
///     └──────────────────────────────────────────────────────────────┘
///     body (response, type = 2):
///     ┌───────────┬────────┬──────┬───────────┬─────────┬────────────┐
///     │ u32 MAGIC │ u8 ver │ u8 2 │ u8 status │ u8 rsvd │ u64 req_id │
///     ├───────────┴────┬───┴──────┴─┬─────────┴─┬───────┴────────────┤
///     │ f64 queue_us   │ f64 total  │ u8 ndims  │ u32 dims[] + f64[] │
///     └────────────────┴────────────┴───────────┴────────────────────┘
///     body (ping, type = 5; v2+):
///     ┌───────────┬────────┬──────┬─────────┬─────────┬───────────────┐
///     │ u32 MAGIC │ u8 ver │ u8 5 │ u8 kind │ u8 rsvd │ u64 nonce     │
///     └───────────┴────────┴──────┴─────────┴─────────┴───────────────┘
///     kind: 0 = ping, 1 = pong. A server answers a ping with a pong
///     carrying the same nonce; the sender matches pongs by nonce.
///     body (stats, type = 6; v2+, drift counters v3+):
///     ┌───────────┬────────┬──────┬─────────┬─────────┬───────────────┐
///     │ u32 MAGIC │ u8 ver │ u8 6 │ u8 kind │ u8 rsvd │ u64 request_id│
///     ├───────────┴────────┴──────┴─────────┴─────────┴───────────────┤
///     │ kind 1 (response) only:  u64 submitted | completed | rejected │
///     │  | deadline_exceeded | errors | invalid | queue_depth         │
///     │  | canaries_sent | canary_failures | rewrites | rewrite_us    │
///     │  | u16 model_count | per model: u16 id_len + id               │
///     │  | u64 input_size | u64 queue_depth | u64 completed           │
///     └───────────────────────────────────────────────────────────────┘
///     kind: 0 = request (body ends after request_id), 1 = response. The
///     response echoes the request's id; a balancer uses the per-model
///     input_size to run the admission-time shape gate client-side and
///     the queue depths as its load signal.
///     body (model admin, type = 7; v4+):
///     ┌───────────┬────────┬──────┬─────────┬───────┬─────────────────┐
///     │ u32 MAGIC │ u8 ver │ u8 7 │ u8 kind │ u8 op │ u64 request_id  │
///     ├───────────┴────────┴─┬────┴─────────┴───────┴─────────────────┤
///     │ u16 id_len + model_id│ u16 file_len + file                    │
///     ├──────────────────────┴───────────────────────────────────────-┤
///     │ kind 1 (response) only:  u8 status | u16 msg_len + message    │
///     │  | u16 model_count | per model: u16 id_len + id               │
///     └───────────────────────────────────────────────────────────────┘
///     kind: 0 = request, 1 = response; op: 0 = load, 1 = unload,
///     2 = list. A load names a .ebm file *relative to the replica's
///     --model_dir* (never a raw path, never raw bytes) and the registry
///     id to serve it under; unload names only the id; list carries
///     neither. The response echoes the request's id and op, reports a
///     Status plus a human-readable message, and -- for list, or any
///     successful op -- the replica's registered model ids, sorted. The
///     frame is answered inline on the event loop like ping/stats; a
///     balancer fans it out to every live replica and aggregates.
///
/// ## Pipelining contract
///
/// A client may keep any number of request frames in flight on one
/// connection. The server matches a response to its request **solely by
/// the echoed `request_id`** -- responses complete out of order and MUST
/// NOT be assumed to arrive in request order. `request_id` values are
/// chosen by the client; reusing an id while it is still in flight makes
/// the two responses indistinguishable (allowed, but on the client's
/// head). Error responses echo the offending frame's id whenever the
/// envelope (magic/version/type through the id field) decoded cleanly;
/// only envelope-level garbage -- where no id can be trusted -- is
/// answered with `request_id = 0`.
///
/// Every response -- a model's output, an error, whatever its size up to
/// kMaxFrameBytes -- travels as one type-2 frame. Type bytes 3 and 4 are
/// unassigned. The request's reserved byte (body byte 7) is written as 0
/// and ignored on decode, so a peer that sets bits there is served
/// exactly like one that does not.
///
/// All integers are little-endian; tensor payloads are raw IEEE-754
/// doubles, so a wire round trip is *byte-identical* to the in-process
/// result (the loopback test pins this). Decoding never trusts a length
/// field it has not bounds-checked: a truncated buffer yields
/// kNeedMoreData, a body over kMaxFrameBytes yields kTooLarge, and any
/// internally-inconsistent frame yields kMalformed with the frame's
/// boundary in `consumed` so a server can skip it and keep the
/// connection. serve::TcpFrontend is the socket loop behind this.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bnn/tensor.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"

namespace eb::serve::wire {

/// Frame magic ("EBGW" read as a little-endian u32).
inline constexpr std::uint32_t kMagic = 0x57474245u;
/// Protocol version this build speaks (v2 added ping + stats frames; v3
/// appended the drift-monitor counters to the stats response; v4 added
/// the type-7 model-admin frame).
inline constexpr std::uint8_t kVersion = 4;
/// Frame-type byte.
inline constexpr std::uint8_t kTypeRequest = 1;
/// Frame-type byte.
inline constexpr std::uint8_t kTypeResponse = 2;
/// Frame-type byte: health-check ping/pong (nonce echo).
inline constexpr std::uint8_t kTypePing = 5;
/// Frame-type byte: gateway metrics request/response.
inline constexpr std::uint8_t kTypeStats = 6;
/// Frame-type byte: model administration (load/unload/list), v4+.
inline constexpr std::uint8_t kTypeModelAdmin = 7;
/// Upper bound on a frame body (16 MiB): anything larger is rejected
/// before any allocation, so a hostile length field cannot OOM the server.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 24;
/// Upper bound on tensor rank in a frame.
inline constexpr std::size_t kMaxDims = 8;

/// A decoded request frame (client -> gateway).
struct RequestFrame {
  std::uint64_t request_id = 0;  ///< Echoed verbatim in the response.
  DeadlineClass cls = DeadlineClass::kInteractive;  ///< Admission class.
  std::uint64_t deadline_us = 0;  ///< 0 = class default.
  std::string model_id;           ///< Registry name to route to.
  bnn::Tensor tensor;             ///< Request payload.
};

/// A decoded response frame (gateway -> client).
struct ResponseFrame {
  std::uint64_t request_id = 0;  ///< Matches the request.
  Status status = Status::kRejected;  ///< Terminal request status.
  double queue_us = 0.0;   ///< Result::queue_us.
  double total_us = 0.0;   ///< Result::total_us (end-to-end).
  bnn::Tensor tensor;      ///< Output; empty unless status == kOk.
};

/// A decoded type-5 health-check frame. A ping (`pong == false`) is
/// answered with a pong carrying the same nonce; the sender matches
/// pongs to pings solely by that echoed nonce.
struct PingFrame {
  std::uint64_t nonce = 0;  ///< Echoed verbatim in the pong.
  bool pong = false;        ///< false = ping (query), true = pong (reply).
};

/// One model's slice of a type-6 stats response.
struct StatsModel {
  std::string id;                 ///< Registry name.
  std::uint64_t input_size = 0;   ///< Declared request width; 0 = unchecked.
  std::uint64_t queue_depth = 0;  ///< The model server's current backlog.
  std::uint64_t completed = 0;    ///< Requests the model completed.
};

/// A decoded type-6 stats frame. The request carries only an id; the
/// response echoes it plus a digest of the gateway's GatewaySnapshot --
/// enough for a balancer to weight replicas (queue depths) and to run
/// the admission-time shape gate client-side (per-model input_size).
struct StatsFrame {
  bool response = false;          ///< false = request, true = response.
  std::uint64_t request_id = 0;   ///< Echoed verbatim in the response.
  std::uint64_t submitted = 0;    ///< GatewaySnapshot::submitted.
  std::uint64_t completed = 0;    ///< GatewaySnapshot::completed.
  std::uint64_t rejected = 0;     ///< GatewaySnapshot::rejected.
  std::uint64_t deadline_exceeded = 0;  ///< Sum over classes.
  std::uint64_t errors = 0;       ///< kInternalError completions, summed.
  std::uint64_t invalid = 0;      ///< kInvalidArgument completions, summed.
  std::uint64_t queue_depth = 0;  ///< Admitted, not completed; summed.
  /// Drift-monitor health (v3+): canary probes sent, probe rounds under
  /// the accuracy floor, online rewrites performed, and the duration of
  /// the latest rewrite. A balancer reads these to see a replica's
  /// crossbars age and recover.
  std::uint64_t canaries_sent = 0;
  std::uint64_t canary_failures = 0;   ///< Rounds below the floor.
  std::uint64_t rewrites = 0;          ///< Recalibrations performed.
  std::uint64_t rewrite_us_last = 0;   ///< Latest rewrite, microseconds.
  std::vector<StatsModel> models;  ///< Response only; sorted by id.
};

/// Model-administration operation carried by a type-7 frame.
enum class ModelAdminOp : std::uint8_t {
  kLoad = 0,    ///< Register `file` (relative to --model_dir) as `model_id`.
  kUnload = 1,  ///< Unregister `model_id`.
  kList = 2,    ///< Report the registered model ids.
};

/// A decoded type-7 model-admin frame (v4+). A load request names a .ebm
/// file *relative to the serving replica's --model_dir* -- never an
/// absolute path and never raw model bytes -- plus the registry id to
/// serve it under; unload names only the id; list names neither. The
/// response echoes the request's id and op, carries a terminal Status
/// with a human-readable message, and -- on success or for list -- the
/// replica's registered model ids, sorted.
struct ModelAdminFrame {
  bool response = false;          ///< false = request, true = response.
  std::uint64_t request_id = 0;   ///< Echoed verbatim in the response.
  ModelAdminOp op = ModelAdminOp::kList;  ///< What to do / what was done.
  std::string model_id;           ///< Registry name (load/unload).
  std::string file;               ///< .ebm name under --model_dir (load).
  Status status = Status::kOk;    ///< Response only: outcome.
  std::string message;            ///< Response only: error detail, "" on ok.
  std::vector<std::string> models;  ///< Response only: registered ids, sorted.
};

/// Decode outcome. Anything except kOk / kNeedMoreData means the frame is
/// invalid; `consumed` > 0 additionally means the frame boundary was
/// still recoverable (the caller may skip it and keep the stream).
enum class DecodeStatus {
  kOk = 0,        ///< One whole frame decoded; `consumed` bytes used.
  kNeedMoreData,  ///< Buffer holds only a frame prefix; read more.
  kBadMagic,      ///< Body does not start with kMagic (stream desync).
  kBadVersion,    ///< Version byte != kVersion.
  kBadType,       ///< Type byte is not the expected frame type.
  kTooLarge,      ///< Declared body length exceeds kMaxFrameBytes.
  kMalformed,     ///< Internally inconsistent body (lengths, class,
                  ///< status, rank, dims/payload mismatch).
};

/// Lower-case log name of a DecodeStatus.
[[nodiscard]] const char* to_string(DecodeStatus s);

/// Serializes a request frame (length prefix included). Throws eb::Error
/// when the body would exceed kMaxFrameBytes -- checked from the element
/// count, before anything is allocated or encoded -- or when the model id
/// or the tensor's rank or dims exceed the wire limits.
[[nodiscard]] std::vector<std::uint8_t> encode_request(
    const RequestFrame& req);
/// Serializes a response frame (length prefix included). Throws eb::Error
/// as encode_request does; the frame cap is checked before encoding.
[[nodiscard]] std::vector<std::uint8_t> encode_response(
    const ResponseFrame& resp);

/// Decodes one request frame from the front of [data, data + size).
/// kOk: `out` is filled and `consumed` is the frame's full size.
/// kNeedMoreData: nothing consumed. Other statuses: the frame is bad;
/// `consumed` is its boundary when recoverable, else 0. On kMalformed,
/// `out.request_id` echoes the frame's id when the envelope through the
/// id field decoded cleanly (so the error response can be matched by a
/// pipelined client), else stays 0.
[[nodiscard]] DecodeStatus decode_request(const std::uint8_t* data,
                                          std::size_t size,
                                          RequestFrame& out,
                                          std::size_t& consumed);
/// Decodes one response frame; same contract as decode_request.
[[nodiscard]] DecodeStatus decode_response(const std::uint8_t* data,
                                           std::size_t size,
                                           ResponseFrame& out,
                                           std::size_t& consumed);
/// Serializes a ping/pong frame (length prefix included).
[[nodiscard]] std::vector<std::uint8_t> encode_ping(const PingFrame& ping);
/// Decodes one type-5 ping/pong frame; same contract as decode_request.
[[nodiscard]] DecodeStatus decode_ping(const std::uint8_t* data,
                                       std::size_t size, PingFrame& out,
                                       std::size_t& consumed);
/// Serializes a stats request or response (length prefix included). A
/// request (`stats.response == false`) carries only the id; the model
/// list and counters ride on responses.
[[nodiscard]] std::vector<std::uint8_t> encode_stats(const StatsFrame& stats);
/// Decodes one type-6 stats frame (either kind -- `out.response` tells
/// which); same contract as decode_request.
[[nodiscard]] DecodeStatus decode_stats(const std::uint8_t* data,
                                        std::size_t size, StatsFrame& out,
                                        std::size_t& consumed);
/// Serializes a model-admin request or response (length prefix included).
/// The status/message/models fields ride on responses only.
[[nodiscard]] std::vector<std::uint8_t> encode_model_admin(
    const ModelAdminFrame& admin);
/// Decodes one type-7 model-admin frame (either kind -- `out.response`
/// tells which); same contract as decode_request.
[[nodiscard]] DecodeStatus decode_model_admin(const std::uint8_t* data,
                                              std::size_t size,
                                              ModelAdminFrame& out,
                                              std::size_t& consumed);

/// Peeks the type byte of the frame at the front of [data, data + size)
/// without decoding the body -- how a pipelined client tells type-2
/// responses from pongs and stats responses, and how the server side
/// routes ping/stats frames interleaved with requests.
/// Validates the length prefix, magic and version; kOk fills `type_out`
/// (the frame may still fail its full decode later).
[[nodiscard]] DecodeStatus peek_type(const std::uint8_t* data,
                                     std::size_t size,
                                     std::uint8_t& type_out);

}  // namespace eb::serve::wire
