// Wire protocol of `skydia serve`: line-delimited JSON over TCP.
//
// Every request is one JSON object on one line, every reply is one JSON
// object on one line, in request order (pipelining is just "send many lines,
// read as many lines"). Grammar (no nesting beyond the coordinate pair; all
// numbers are integers):
//
//   query   := {"q":[X,Y]}                 point-location skyline query
//              optional fields:
//                "exact":true              boundary-exact answer (oracle
//                                          fallback on a dynamic diagram's
//                                          grid/bisector lines)
//                "labels":true             reply with dataset labels instead
//                                          of point ids
//                "semantics":"quadrant"|"global"|"dynamic"
//                                          assert/override the semantics; a
//                                          mismatch with the snapshot is an
//                                          error unless "exact" is set
//                "id":N                    opaque correlation id, echoed back
//                "rid":"..."               request id (any request kind):
//                                          stamped on the reply, the slow
//                                          query log and trace spans; the
//                                          server generates one when absent
//   range   := {"cmd":"range","x":[LO,HI],"y":[LO,HI]}
//                                          skyline over every position in
//                                          the closed rectangle; optional
//                                          "labels" and "id" as for queries
//   mutate  := {"cmd":"insert","x":X,"y":Y[,"label":"..."]}
//                                          append one point; the ack carries
//                                          its id as "point"
//            | {"cmd":"delete","point":N}  remove point N (ids above shift
//                                          down by one; labels follow)
//            | {"cmd":"flush"}             publish pending mutations now
//   admin   := {"cmd":"ping"}             liveness check
//            | {"cmd":"stats"}            serving counters as JSON
//            | {"cmd":"reload"[,"path":"..."]}
//                                          hot-swap the snapshot (omitted
//                                          path reloads the current file)
//
//   reply   := {"id":N,"gen":G,"ids":[...]}      (or "labels":[...])
//            | {"id":N,"gen":G,"union":[...],"intersection":[...],
//               "distinct":D}                    (range replies)
//            | {"id":N,"ok":true,"gen":G}        (admin/mutation acks; insert
//                                                 acks add ,"point":P)
//            | {"id":N,"error":"message","code":"..."}
//                                                 ("id" present when known)
//
// Every reply additionally carries a trailing "rid" field — the request id
// echoed back (client-supplied "rid") or server-generated ("s<n>"). Like
// "code" before it, the field is appended LAST so prefix-matching clients of
// the pre-rid protocol keep working.
//
// "gen" is the snapshot generation that answered the query — the hot-swap
// observability handle (tests/serve/hotswap_stress_test.cc asserts on it).
// Mutation acks carry the generation at which the mutation becomes visible:
// mutations apply to a shadow diagram and publish atomically on the
// coalescing window, a flush, or synchronously when the window is 0.
//
// Error replies carry a stable machine-readable "code" (see ErrorCode) so
// clients can branch without string-matching the human message.
//
// Unknown fields, non-integer numbers, nested structures and \u escapes are
// rejected with a per-line error reply; the connection stays open. Parsing
// never throws and never aborts.
#ifndef SKYDIA_SRC_SERVE_PROTOCOL_H_
#define SKYDIA_SRC_SERVE_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>

#include "src/common/status.h"
#include "src/core/diagram.h"
#include "src/core/range_query.h"
#include "src/geometry/dataset.h"
#include "src/geometry/point.h"

namespace skydia::serve {

/// What one request line asks for.
enum class RequestKind {
  kQuery,
  kRange,
  kPing,
  kStats,
  kReload,
  kInsert,
  kDelete,
  kFlush,
};

/// Per-kind request payloads: each kind carries exactly the fields it uses,
/// so adding a request kind never widens the others. Which alternative a
/// Request holds is determined by its kind (see Request::payload).
struct QueryPayload {
  Point2D q{0, 0};
  bool exact = false;
  bool labels = false;
  std::optional<SkylineQueryType> semantics;
};

struct RangePayload {
  QueryRange range;  ///< the [x_lo,x_hi]x[y_lo,y_hi] rectangle
  bool labels = false;
};

struct PingPayload {};
struct StatsPayload {};

struct ReloadPayload {
  std::string path;  ///< reload target ("" = current file)
};

struct InsertPayload {
  Point2D p{0, 0};
  std::optional<std::string> label;  ///< default "p<id>" when absent
};

struct DeletePayload {
  int64_t point = 0;  ///< id to delete (validated at apply time)
};

struct FlushPayload {};

/// One parsed request line: the kind, the correlation id, and the kind's
/// payload. The typed accessors assume the matching kind (checked by
/// std::get; ParseRequest always constructs the alternative matching kind).
struct Request {
  RequestKind kind = RequestKind::kQuery;
  std::optional<int64_t> id;  ///< echoed back verbatim when present
  /// Client-supplied request id ("" = absent; the server generates one).
  /// Stamped on the reply, the slow-query log, and trace spans.
  std::string rid;
  std::variant<QueryPayload, RangePayload, PingPayload, StatsPayload,
               ReloadPayload, InsertPayload, DeletePayload, FlushPayload>
      payload;

  const QueryPayload& query() const { return std::get<QueryPayload>(payload); }
  const RangePayload& range() const { return std::get<RangePayload>(payload); }
  const ReloadPayload& reload() const {
    return std::get<ReloadPayload>(payload);
  }
  const InsertPayload& insert() const {
    return std::get<InsertPayload>(payload);
  }
  const DeletePayload& del() const { return std::get<DeletePayload>(payload); }
};

/// Stable machine-readable error categories for the "code" reply field.
/// The names are wire contract: clients branch on them, so existing values
/// never change meaning.
enum class ErrorCode {
  kParseError,           ///< the request line failed to parse
  kInvalidArgument,      ///< well-formed but unservable request
  kUnknownPoint,         ///< delete of an id outside the dataset
  kOverloaded,           ///< mutation backlog full; flush or retry later
};

/// The wire spelling of `code` ("parse_error", "invalid_argument", ...).
std::string_view ErrorCodeName(ErrorCode code);

/// Maps a Status from the serving/mutation layers to its wire code, on the
/// structured StatusCode alone (never on message text): NotFound ->
/// unknown_point, ResourceExhausted -> overloaded, everything else
/// invalid_argument.
ErrorCode ErrorCodeForStatus(const Status& status);

/// The request-id rule: a "rid" is 1 to kMaxRidBytes bytes with no control
/// character, not even via an escape (it lands in logs, replies and the
/// trace-context ring, and a log line must stay one line).
constexpr size_t kMaxRidBytes = 64;
/// Why `rid` breaks the request-id rule, or "" when it keeps it. A line
/// whose rid breaks it fails ParseRequest, and the server stamps only a rid
/// that keeps it on a batch and its replies.
std::string_view RidError(std::string_view rid);

/// Parses one request line (without the trailing newline). Returns
/// InvalidArgument with a position-annotated message on malformed input.
StatusOr<Request> ParseRequest(std::string_view line);

/// Appends `in` JSON-escaped (quotes, backslashes, control characters).
void JsonEscape(std::string_view in, std::string* out);

/// Renders a sorted id span as a JSON array: "[1,4,9]".
std::string RenderIdsArray(std::span<const PointId> ids);

/// Renders the labels of `ids` as a JSON array of strings.
std::string RenderLabelsArray(const Dataset& dataset,
                              std::span<const PointId> ids);

/// Appends one query reply line: {"id":N,"gen":G,<key>:<array_json>}\n.
/// `key` is "ids" or "labels"; `array_json` must already be rendered.
/// Every appender takes a trailing `rid` — the request id stamped as the
/// reply's LAST field (omitted when empty, for embedders without ids).
void AppendQueryReply(std::optional<int64_t> id, uint64_t generation,
                      std::string_view key, std::string_view array_json,
                      std::string* out, std::string_view rid = "");

/// Appends one range reply line:
/// {"id":N,"gen":G,"union":U,"intersection":I,"distinct":D}\n. The two
/// array payloads must already be rendered (ids or labels form).
void AppendRangeReply(std::optional<int64_t> id, uint64_t generation,
                      std::string_view union_json,
                      std::string_view intersection_json, uint64_t distinct,
                      std::string* out, std::string_view rid = "");

/// Appends one admin ack line: {"id":N,"ok":true,"gen":G}\n.
void AppendOkReply(std::optional<int64_t> id, uint64_t generation,
                   std::string* out, std::string_view rid = "");

/// Appends one insert ack line: {"id":N,"ok":true,"gen":G,"point":P}\n —
/// an AppendOkReply that also reports the new point's id.
void AppendInsertReply(std::optional<int64_t> id, uint64_t generation,
                       PointId point, std::string* out,
                       std::string_view rid = "");

/// Appends one error reply line: {"id":N,"error":"...","code":"..."}\n.
/// The code (and the rid after it) come last so prefix-matching clients of
/// the pre-code protocol keep working.
void AppendErrorReply(std::optional<int64_t> id, ErrorCode code,
                      std::string_view message, std::string* out,
                      std::string_view rid = "");

}  // namespace skydia::serve

#endif  // SKYDIA_SRC_SERVE_PROTOCOL_H_
