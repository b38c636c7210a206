#include "src/serve/protocol.h"

#include <limits>
#include <utility>

namespace skydia::serve {

namespace {

/// Strict single-pass scanner over one request line. The protocol's JSON
/// subset keeps this tiny: objects of string keys, integer/bool/string
/// values, plus the one [X,Y] coordinate array.
class Cursor {
 public:
  explicit Cursor(std::string_view s) : s_(s) {}

  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Eat(char c) {
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// Next non-whitespace byte without consuming it ('\0' at end of input).
  char Peek() {
    SkipWs();
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }

  bool AtEnd() {
    SkipWs();
    return pos_ == s_.size();
  }

  Status Error(const std::string& message) const {
    return Status::InvalidArgument(message + " at byte " +
                                   std::to_string(pos_));
  }

  StatusOr<std::string> ParseString() {
    if (!Eat('"')) return Error("expected string");
    std::string out;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) break;
      const char esc = s_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out.push_back(esc);
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u':
          return Error("\\u escapes are not supported");
        default:
          return Error("unknown escape");
      }
    }
    return Error("unterminated string");
  }

  StatusOr<int64_t> ParseInt() {
    SkipWs();
    const bool negative = pos_ < s_.size() && s_[pos_] == '-';
    if (negative) ++pos_;
    if (pos_ >= s_.size() || s_[pos_] < '0' || s_[pos_] > '9') {
      return Error("expected integer");
    }
    uint64_t magnitude = 0;
    while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') {
      const uint64_t digit = static_cast<uint64_t>(s_[pos_] - '0');
      if (magnitude > (std::numeric_limits<uint64_t>::max() - digit) / 10) {
        return Error("integer out of range");
      }
      magnitude = magnitude * 10 + digit;
      ++pos_;
    }
    if (pos_ < s_.size() && (s_[pos_] == '.' || s_[pos_] == 'e' ||
                             s_[pos_] == 'E')) {
      return Error("coordinates and ids must be integers");
    }
    const uint64_t limit =
        static_cast<uint64_t>(std::numeric_limits<int64_t>::max()) +
        (negative ? 1 : 0);
    if (magnitude > limit) return Error("integer out of range");
    // Negate in the unsigned domain: -INT64_MIN is UB in signed arithmetic,
    // but 0 - magnitude is well-defined modular wrap, and the narrowing
    // conversion is value-preserving two's complement (C++20).
    if (negative) return static_cast<int64_t>(uint64_t{0} - magnitude);
    return static_cast<int64_t>(magnitude);
  }

  StatusOr<bool> ParseBool() {
    SkipWs();
    if (s_.substr(pos_, 4) == "true") {
      pos_ += 4;
      return true;
    }
    if (s_.substr(pos_, 5) == "false") {
      pos_ += 5;
      return false;
    }
    return Error("expected true or false");
  }

 private:
  std::string_view s_;
  size_t pos_ = 0;
};

void AppendInt(int64_t v, std::string* out) { out->append(std::to_string(v)); }

void AppendIdPrefix(std::optional<int64_t> id, std::string* out) {
  out->push_back('{');
  if (id.has_value()) {
    out->append("\"id\":");
    AppendInt(*id, out);
    out->push_back(',');
  }
}

/// Closes a reply line, stamping the rid as the LAST field (wire contract:
/// prefix-matching clients never see it unless they ask).
void AppendRidSuffix(std::string_view rid, std::string* out) {
  if (!rid.empty()) {
    out->append(",\"rid\":\"");
    JsonEscape(rid, out);
    out->push_back('"');
  }
  out->append("}\n");
}

}  // namespace

std::string_view RidError(std::string_view rid) {
  if (rid.empty()) return "\"rid\" must be a non-empty string";
  if (rid.size() > kMaxRidBytes) return "\"rid\" exceeds 64 bytes";
  for (const char c : rid) {
    if (static_cast<unsigned char>(c) < 0x20) {
      return "\"rid\" may not contain control characters";
    }
  }
  return "";
}

std::string_view ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kParseError:
      return "parse_error";
    case ErrorCode::kInvalidArgument:
      return "invalid_argument";
    case ErrorCode::kUnknownPoint:
      return "unknown_point";
    case ErrorCode::kOverloaded:
      return "overloaded";
  }
  return "invalid_argument";
}

ErrorCode ErrorCodeForStatus(const Status& status) {
  // Structural mapping only: message text is for humans and must never
  // decide the code a client branches on.
  switch (status.code()) {
    case StatusCode::kNotFound:
      return ErrorCode::kUnknownPoint;  // delete of a nonexistent id
    case StatusCode::kResourceExhausted:
      return ErrorCode::kOverloaded;  // mutation backlog full; retry later
    default:
      return ErrorCode::kInvalidArgument;
  }
}

StatusOr<Request> ParseRequest(std::string_view line) {
  Cursor cursor(line);
  if (!cursor.Eat('{')) {
    return cursor.Error("request must be a JSON object");
  }
  // Field pass: accumulate every recognized key into flat locals
  // (last-wins on duplicates), then validate the combination and build the
  // kind-specific payload below.
  Request request;
  bool have_q = false;
  bool have_cmd = false;
  bool have_x_pair = false;
  bool have_y_pair = false;
  bool have_x_scalar = false;
  bool have_y_scalar = false;
  bool have_point = false;
  bool exact = false;
  bool labels = false;
  Point2D q{0, 0};
  QueryRange range;
  int64_t x_scalar = 0;
  int64_t y_scalar = 0;
  int64_t point = 0;
  std::optional<SkylineQueryType> semantics;
  std::optional<std::string> label;
  std::string path;
  std::string cmd;
  // Parses a two-element integer array "[lo,hi]" into (*lo, *hi).
  const auto parse_pair = [&cursor](const char* what, int64_t* lo,
                                    int64_t* hi) -> Status {
    const std::string shape = std::string(1, '"') + what + "\" must be " +
                              "[lo,hi]";
    if (!cursor.Eat('[')) return cursor.Error(shape);
    auto first = cursor.ParseInt();
    if (!first.ok()) return first.status();
    if (!cursor.Eat(',')) return cursor.Error(shape);
    auto second = cursor.ParseInt();
    if (!second.ok()) return second.status();
    if (!cursor.Eat(']')) return cursor.Error(shape);
    *lo = *first;
    *hi = *second;
    return Status::OK();
  };
  // Parses "x"/"y", which is shape-overloaded: [lo,hi] range bounds or a
  // scalar insert coordinate, told apart by the leading '['.
  const auto parse_axis = [&](const char* what, int64_t* lo, int64_t* hi,
                              int64_t* scalar, bool* is_pair,
                              bool* is_scalar) -> Status {
    if (cursor.Peek() == '[') {
      if (Status s = parse_pair(what, lo, hi); !s.ok()) return s;
      *is_pair = true;
      *is_scalar = false;
      return Status::OK();
    }
    auto v = cursor.ParseInt();
    if (!v.ok()) return v.status();
    *scalar = *v;
    *is_scalar = true;
    *is_pair = false;
    return Status::OK();
  };
  if (!cursor.Eat('}')) {
    do {
      auto key = cursor.ParseString();
      if (!key.ok()) return key.status();
      if (!cursor.Eat(':')) return cursor.Error("expected ':' after key");
      if (*key == "q") {
        if (!cursor.Eat('[')) return cursor.Error("\"q\" must be [x,y]");
        auto x = cursor.ParseInt();
        if (!x.ok()) return x.status();
        if (!cursor.Eat(',')) return cursor.Error("\"q\" must be [x,y]");
        auto y = cursor.ParseInt();
        if (!y.ok()) return y.status();
        if (!cursor.Eat(']')) return cursor.Error("\"q\" must be [x,y]");
        q = Point2D{*x, *y};
        have_q = true;
      } else if (*key == "x") {
        if (Status s = parse_axis("x", &range.x_lo, &range.x_hi, &x_scalar,
                                  &have_x_pair, &have_x_scalar);
            !s.ok()) {
          return s;
        }
      } else if (*key == "y") {
        if (Status s = parse_axis("y", &range.y_lo, &range.y_hi, &y_scalar,
                                  &have_y_pair, &have_y_scalar);
            !s.ok()) {
          return s;
        }
      } else if (*key == "exact") {
        auto v = cursor.ParseBool();
        if (!v.ok()) return v.status();
        exact = *v;
      } else if (*key == "labels") {
        auto v = cursor.ParseBool();
        if (!v.ok()) return v.status();
        labels = *v;
      } else if (*key == "semantics") {
        auto name = cursor.ParseString();
        if (!name.ok()) return name.status();
        auto parsed = ParseSkylineQueryType(*name);
        if (!parsed.ok()) return parsed.status();
        semantics = *parsed;
      } else if (*key == "id") {
        auto v = cursor.ParseInt();
        if (!v.ok()) return v.status();
        request.id = *v;
      } else if (*key == "rid") {
        auto v = cursor.ParseString();
        if (!v.ok()) return v.status();
        if (const std::string_view error = RidError(*v); !error.empty()) {
          return Status::InvalidArgument(std::string(error));
        }
        request.rid = *std::move(v);
      } else if (*key == "cmd") {
        auto v = cursor.ParseString();
        if (!v.ok()) return v.status();
        cmd = *std::move(v);
        have_cmd = true;
      } else if (*key == "path") {
        auto v = cursor.ParseString();
        if (!v.ok()) return v.status();
        path = *std::move(v);
      } else if (*key == "label") {
        auto v = cursor.ParseString();
        if (!v.ok()) return v.status();
        label = *std::move(v);
      } else if (*key == "point") {
        auto v = cursor.ParseInt();
        if (!v.ok()) return v.status();
        point = *v;
        have_point = true;
      } else {
        return Status::InvalidArgument("unknown request field \"" + *key +
                                       "\"");
      }
    } while (cursor.Eat(','));
    if (!cursor.Eat('}')) return cursor.Error("expected ',' or '}'");
  }
  if (!cursor.AtEnd()) return cursor.Error("trailing bytes after request");

  if (have_cmd) {
    if (have_q) {
      return Status::InvalidArgument("\"cmd\" and \"q\" are mutually exclusive");
    }
    if (label.has_value() && cmd != "insert") {
      return Status::InvalidArgument(
          "\"label\" only applies to {\"cmd\":\"insert\"}");
    }
    if (have_point && cmd != "delete") {
      return Status::InvalidArgument(
          "\"point\" only applies to {\"cmd\":\"delete\"}");
    }
    if (cmd == "range") {
      if (!have_x_pair || !have_y_pair) {
        return Status::InvalidArgument(
            "\"range\" needs \"x\":[lo,hi] and \"y\":[lo,hi]");
      }
      request.kind = RequestKind::kRange;
      request.payload = RangePayload{range, labels};
      return request;
    }
    if (cmd == "insert") {
      if (have_x_pair || have_y_pair || !have_x_scalar || !have_y_scalar) {
        return Status::InvalidArgument(
            "\"insert\" needs scalar \"x\":X and \"y\":Y");
      }
      request.kind = RequestKind::kInsert;
      request.payload =
          InsertPayload{Point2D{x_scalar, y_scalar}, std::move(label)};
      return request;
    }
    if (have_x_pair || have_y_pair) {
      return Status::InvalidArgument(
          "\"x\"/\"y\" bounds only apply to {\"cmd\":\"range\"}");
    }
    if (have_x_scalar || have_y_scalar) {
      return Status::InvalidArgument(
          "scalar \"x\"/\"y\" only apply to {\"cmd\":\"insert\"}");
    }
    if (cmd == "delete") {
      if (!have_point) {
        return Status::InvalidArgument("\"delete\" needs \"point\":N");
      }
      request.kind = RequestKind::kDelete;
      request.payload = DeletePayload{point};
      return request;
    }
    if (cmd == "flush") {
      request.kind = RequestKind::kFlush;
      request.payload = FlushPayload{};
    } else if (cmd == "ping") {
      request.kind = RequestKind::kPing;
      request.payload = PingPayload{};
    } else if (cmd == "stats") {
      request.kind = RequestKind::kStats;
      request.payload = StatsPayload{};
    } else if (cmd == "reload") {
      request.kind = RequestKind::kReload;
      request.payload = ReloadPayload{std::move(path)};
    } else {
      return Status::InvalidArgument(
          "unknown cmd \"" + cmd +
          "\" (ping|stats|reload|range|insert|delete|flush)");
    }
    return request;
  }
  if (have_x_pair || have_y_pair || have_x_scalar || have_y_scalar) {
    return Status::InvalidArgument(
        "\"x\"/\"y\" bounds only apply to {\"cmd\":\"range\"}");
  }
  if (label.has_value()) {
    return Status::InvalidArgument(
        "\"label\" only applies to {\"cmd\":\"insert\"}");
  }
  if (have_point) {
    return Status::InvalidArgument(
        "\"point\" only applies to {\"cmd\":\"delete\"}");
  }
  if (!have_q) {
    return Status::InvalidArgument("request needs \"q\" or \"cmd\"");
  }
  request.kind = RequestKind::kQuery;
  request.payload = QueryPayload{q, exact, labels, semantics};
  return request;
}

void JsonEscape(std::string_view in, std::string* out) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char c : in) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (u < 0x20) {
      out->append("\\u00");
      out->push_back(kHex[u >> 4]);
      out->push_back(kHex[u & 0xF]);
    } else {
      out->push_back(c);
    }
  }
}

std::string RenderIdsArray(std::span<const PointId> ids) {
  std::string out;
  out.reserve(2 + ids.size() * 6);
  out.push_back('[');
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out.push_back(',');
    out.append(std::to_string(ids[i]));
  }
  out.push_back(']');
  return out;
}

std::string RenderLabelsArray(const Dataset& dataset,
                              std::span<const PointId> ids) {
  std::string out;
  out.push_back('[');
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out.push_back(',');
    out.push_back('"');
    JsonEscape(dataset.label(ids[i]), &out);
    out.push_back('"');
  }
  out.push_back(']');
  return out;
}

void AppendQueryReply(std::optional<int64_t> id, uint64_t generation,
                      std::string_view key, std::string_view array_json,
                      std::string* out, std::string_view rid) {
  AppendIdPrefix(id, out);
  out->append("\"gen\":");
  out->append(std::to_string(generation));
  out->append(",\"");
  out->append(key);
  out->append("\":");
  out->append(array_json);
  AppendRidSuffix(rid, out);
}

void AppendRangeReply(std::optional<int64_t> id, uint64_t generation,
                      std::string_view union_json,
                      std::string_view intersection_json, uint64_t distinct,
                      std::string* out, std::string_view rid) {
  AppendIdPrefix(id, out);
  out->append("\"gen\":");
  out->append(std::to_string(generation));
  out->append(",\"union\":");
  out->append(union_json);
  out->append(",\"intersection\":");
  out->append(intersection_json);
  out->append(",\"distinct\":");
  out->append(std::to_string(distinct));
  AppendRidSuffix(rid, out);
}

void AppendOkReply(std::optional<int64_t> id, uint64_t generation,
                   std::string* out, std::string_view rid) {
  AppendIdPrefix(id, out);
  out->append("\"ok\":true,\"gen\":");
  out->append(std::to_string(generation));
  AppendRidSuffix(rid, out);
}

void AppendInsertReply(std::optional<int64_t> id, uint64_t generation,
                       PointId point, std::string* out,
                       std::string_view rid) {
  AppendIdPrefix(id, out);
  out->append("\"ok\":true,\"gen\":");
  out->append(std::to_string(generation));
  out->append(",\"point\":");
  out->append(std::to_string(point));
  AppendRidSuffix(rid, out);
}

void AppendErrorReply(std::optional<int64_t> id, ErrorCode code,
                      std::string_view message, std::string* out,
                      std::string_view rid) {
  AppendIdPrefix(id, out);
  out->append("\"error\":\"");
  JsonEscape(message, out);
  out->append("\",\"code\":\"");
  out->append(ErrorCodeName(code));
  out->push_back('"');
  AppendRidSuffix(rid, out);
}

}  // namespace skydia::serve
