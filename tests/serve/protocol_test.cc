#include "src/serve/protocol.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "tests/testing/util.h"

namespace skydia::serve {
namespace {

TEST(ParseRequestTest, MinimalQuery) {
  auto r = ParseRequest(R"({"q":[10,80]})");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->kind, RequestKind::kQuery);
  EXPECT_EQ(r->query().q.x, 10);
  EXPECT_EQ(r->query().q.y, 80);
  EXPECT_FALSE(r->query().exact);
  EXPECT_FALSE(r->query().labels);
  EXPECT_FALSE(r->query().semantics.has_value());
  EXPECT_FALSE(r->id.has_value());
}

TEST(ParseRequestTest, AllQueryFields) {
  auto r = ParseRequest(
      R"({"q":[-3,7],"exact":true,"labels":true,"semantics":"global","id":42})");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->query().q.x, -3);
  EXPECT_EQ(r->query().q.y, 7);
  EXPECT_TRUE(r->query().exact);
  EXPECT_TRUE(r->query().labels);
  ASSERT_TRUE(r->query().semantics.has_value());
  EXPECT_EQ(*r->query().semantics, SkylineQueryType::kGlobal);
  ASSERT_TRUE(r->id.has_value());
  EXPECT_EQ(*r->id, 42);
}

TEST(ParseRequestTest, WhitespaceTolerated) {
  auto r = ParseRequest(R"(  { "q" : [ 1 , 2 ] , "id" : 9 }  )");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->query().q.x, 1);
  EXPECT_EQ(r->query().q.y, 2);
  EXPECT_EQ(*r->id, 9);
}

TEST(ParseRequestTest, AdminCommands) {
  auto ping = ParseRequest(R"({"cmd":"ping"})");
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(ping->kind, RequestKind::kPing);

  auto stats = ParseRequest(R"({"cmd":"stats","id":1})");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->kind, RequestKind::kStats);
  EXPECT_EQ(*stats->id, 1);

  auto reload = ParseRequest(R"({"cmd":"reload"})");
  ASSERT_TRUE(reload.ok());
  EXPECT_EQ(reload->kind, RequestKind::kReload);
  EXPECT_TRUE(reload->reload().path.empty());

  auto reload_path = ParseRequest(R"({"cmd":"reload","path":"/tmp/x.skd"})");
  ASSERT_TRUE(reload_path.ok());
  EXPECT_EQ(reload_path->kind, RequestKind::kReload);
  EXPECT_EQ(reload_path->reload().path, "/tmp/x.skd");
}

TEST(ParseRequestTest, MutationCommands) {
  auto insert = ParseRequest(R"({"cmd":"insert","x":10,"y":-4,"id":7})");
  ASSERT_TRUE(insert.ok()) << insert.status();
  EXPECT_EQ(insert->kind, RequestKind::kInsert);
  EXPECT_EQ(insert->insert().p.x, 10);
  EXPECT_EQ(insert->insert().p.y, -4);
  EXPECT_FALSE(insert->insert().label.has_value());
  EXPECT_EQ(*insert->id, 7);

  auto labelled =
      ParseRequest(R"({"cmd":"insert","x":1,"y":2,"label":"hotel"})");
  ASSERT_TRUE(labelled.ok()) << labelled.status();
  ASSERT_TRUE(labelled->insert().label.has_value());
  EXPECT_EQ(*labelled->insert().label, "hotel");

  auto del = ParseRequest(R"({"cmd":"delete","point":12,"id":9})");
  ASSERT_TRUE(del.ok()) << del.status();
  EXPECT_EQ(del->kind, RequestKind::kDelete);
  EXPECT_EQ(del->del().point, 12);
  EXPECT_EQ(*del->id, 9);

  auto flush = ParseRequest(R"({"cmd":"flush"})");
  ASSERT_TRUE(flush.ok()) << flush.status();
  EXPECT_EQ(flush->kind, RequestKind::kFlush);
}

TEST(ParseRequestTest, MutationRejections) {
  const char* bad[] = {
      R"({"cmd":"insert"})",                    // missing both coordinates
      R"({"cmd":"insert","x":1})",              // missing y
      R"({"cmd":"insert","y":1})",              // missing x
      R"({"cmd":"insert","x":[1,2],"y":3})",    // pair where scalar expected
      R"({"cmd":"insert","x":1,"y":2,"point":3})",  // point on insert
      R"({"cmd":"delete"})",                    // missing point
      R"({"cmd":"delete","point":1,"label":"a"})",  // label on delete
      R"({"cmd":"delete","x":3,"point":1})",    // scalar x on delete
      R"({"cmd":"flush","point":1})",           // point on flush
      R"({"cmd":"ping","label":"a"})",          // label on admin cmd
      R"({"point":3})",                         // point without cmd
      R"({"label":"a","q":[1,2]})",             // label on plain query
      R"({"cmd":"range","x":1,"y":[1,2]})",     // scalar bound on range
  };
  for (const char* line : bad) {
    auto r = ParseRequest(line);
    EXPECT_FALSE(r.ok()) << "accepted: " << line;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << line;
  }
}

TEST(ParseRequestTest, StringEscapes) {
  auto r = ParseRequest(R"({"cmd":"reload","path":"a\"b\\c\n\t"})");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->reload().path, "a\"b\\c\n\t");
}

TEST(ParseRequestTest, Rejections) {
  // One representative malformed line per rule; each must fail, never abort.
  const char* bad[] = {
      "",                                    // not an object
      "[1,2]",                               // not an object
      R"({"q":[1,2]} trailing)",             // trailing bytes
      R"({"q":[1]})",                        // not a pair
      R"({"q":[1,2,3]})",                    // not a pair
      R"({"q":[1.5,2]})",                    // non-integer
      R"({"q":[1e3,2]})",                    // non-integer
      R"({"q":[99999999999999999999,2]})",   // overflow
      R"({"zzz":1})",                        // unknown field
      R"({"q":[1,2],"cmd":"ping"})",         // cmd and q together
      R"({"exact":true})",                   // neither cmd nor q
      R"({"cmd":"explode"})",                // unknown cmd
      R"({"semantics":"voronoi","q":[1,2]})",// unknown semantics
      R"({"exact":maybe,"q":[1,2]})",        // bad bool
      R"({"q":[1,2])",                       // unterminated object
      R"({"cmd":"ping)",                     // unterminated string
  };
  for (const char* line : bad) {
    auto r = ParseRequest(line);
    EXPECT_FALSE(r.ok()) << "accepted: " << line;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << line;
  }
}

TEST(ParseRequestTest, RangeCommand) {
  auto r = ParseRequest(R"({"cmd":"range","x":[10,20],"y":[-5,5],"id":3})");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->kind, RequestKind::kRange);
  EXPECT_EQ(r->range().range.x_lo, 10);
  EXPECT_EQ(r->range().range.x_hi, 20);
  EXPECT_EQ(r->range().range.y_lo, -5);
  EXPECT_EQ(r->range().range.y_hi, 5);
  EXPECT_EQ(*r->id, 3);

  // Field order and labels compose like everywhere else.
  auto swapped = ParseRequest(
      R"({"y":[0,0],"labels":true,"x":[7,7],"cmd":"range"})");
  ASSERT_TRUE(swapped.ok()) << swapped.status();
  EXPECT_EQ(swapped->kind, RequestKind::kRange);
  EXPECT_EQ(swapped->range().range.x_lo, 7);
  EXPECT_TRUE(swapped->range().labels);
}

TEST(ParseRequestTest, RangeRejections) {
  const char* bad[] = {
      R"({"cmd":"range"})",                  // missing both bounds
      R"({"cmd":"range","x":[1,2]})",        // missing y
      R"({"cmd":"range","y":[1,2]})",        // missing x
      R"({"cmd":"range","x":[1],"y":[1,2]})",// not a pair
      R"({"cmd":"range","x":[1,2,3],"y":[1,2]})",
      R"({"cmd":"range","x":[1.5,2],"y":[1,2]})",
      R"({"cmd":"range","x":[1,2],"y":[1,2],"q":[1,2]})",  // with q
      R"({"cmd":"ping","x":[1,2],"y":[1,2]})",  // bounds on other cmd
      R"({"q":[1,2],"x":[1,2],"y":[1,2]})",     // bounds on plain query
      R"({"x":[1,2],"y":[1,2]})",               // bounds alone
  };
  for (const char* line : bad) {
    auto r = ParseRequest(line);
    EXPECT_FALSE(r.ok()) << "accepted: " << line;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << line;
  }
}

TEST(RenderTest, RangeReply) {
  std::string out;
  AppendRangeReply(4, 2, "[1,2]", "[2]", 3, &out);
  EXPECT_EQ(out,
            "{\"id\":4,\"gen\":2,\"union\":[1,2],"
            "\"intersection\":[2],\"distinct\":3}\n");
  out.clear();
  AppendRangeReply(std::nullopt, 1, "[]", "[]", 1, &out);
  EXPECT_EQ(out, "{\"gen\":1,\"union\":[],\"intersection\":[],\"distinct\":1}\n");
}

// One request-id rule (RidError) for the parser and the server's raw scan:
// 1 to 64 bytes, no control character even via an escape.
TEST(ParseRequestTest, RidRule) {
  EXPECT_EQ(RidError("X-req-1"), "");
  EXPECT_EQ(RidError(std::string(kMaxRidBytes, 'r')), "");
  EXPECT_NE(RidError(""), "");
  EXPECT_NE(RidError(std::string(kMaxRidBytes + 1, 'r')), "");
  EXPECT_NE(RidError("a\x1b" "b"), "");

  auto kept = ParseRequest(R"({"q":[1,2],"rid":"X-req-1"})");
  ASSERT_TRUE(kept.ok()) << kept.status();
  EXPECT_EQ(kept->rid, "X-req-1");
  auto escaped = ParseRequest(R"({"q":[1,2],"rid":"a\tb"})");
  ASSERT_FALSE(escaped.ok());
  EXPECT_EQ(escaped.status().message(), RidError("a\tb"));
  EXPECT_FALSE(ParseRequest(R"({"q":[1,2],"rid":""})").ok());
}

TEST(ParseRequestTest, UnicodeEscapesRejected) {
  // Built programmatically: backslash-u escapes are out of the protocol's
  // JSON subset and must be rejected, not mis-decoded.
  std::string line = R"({"cmd":"reload","path":")";
  line += '\\';
  line += "u0041\"}";
  auto r = ParseRequest(line);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParseRequestTest, NegativeIdAndInt64Extremes) {
  auto r = ParseRequest(
      R"({"q":[-9223372036854775808,9223372036854775807],"id":-1})");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->query().q.x, std::numeric_limits<int64_t>::min());
  EXPECT_EQ(r->query().q.y, std::numeric_limits<int64_t>::max());
  EXPECT_EQ(*r->id, -1);
}

TEST(RenderTest, IdsArray) {
  const PointId ids[] = {1, 4, 9};
  EXPECT_EQ(RenderIdsArray(ids), "[1,4,9]");
  EXPECT_EQ(RenderIdsArray({}), "[]");
}

TEST(RenderTest, LabelsArrayEscapes) {
  auto dataset = Dataset::Create({{1, 2}, {3, 4}}, 10, {"a\"b", "plain"});
  ASSERT_TRUE(dataset.ok());
  const PointId ids[] = {0, 1};
  EXPECT_EQ(RenderLabelsArray(*dataset, ids), R"(["a\"b","plain"])");
}

TEST(RenderTest, JsonEscapeControlCharacters) {
  std::string out;
  JsonEscape(std::string_view("\x01ok\"\\", 5), &out);
  std::string expected;
  expected += '\\';
  expected += "u0001ok";
  expected += '\\';
  expected += '"';
  expected += '\\';
  expected += '\\';
  EXPECT_EQ(out, expected);
}

TEST(RenderTest, ReplyLines) {
  std::string out;
  AppendQueryReply(7, 3, "ids", "[1,2]", &out);
  EXPECT_EQ(out, "{\"id\":7,\"gen\":3,\"ids\":[1,2]}\n");

  out.clear();
  AppendQueryReply(std::nullopt, 1, "labels", R"(["a"])", &out);
  EXPECT_EQ(out, "{\"gen\":1,\"labels\":[\"a\"]}\n");

  out.clear();
  AppendOkReply(5, 2, &out);
  EXPECT_EQ(out, "{\"id\":5,\"ok\":true,\"gen\":2}\n");

  out.clear();
  AppendInsertReply(5, 2, 17, &out);
  EXPECT_EQ(out, "{\"id\":5,\"ok\":true,\"gen\":2,\"point\":17}\n");

  out.clear();
  AppendErrorReply(std::nullopt, ErrorCode::kParseError, "bad \"thing\"",
                   &out);
  EXPECT_EQ(out,
            "{\"error\":\"bad \\\"thing\\\"\",\"code\":\"parse_error\"}\n");

  // The error message comes first so clients of the pre-code protocol that
  // prefix-match on {"error": (or {"id":N,"error":) keep working.
  out.clear();
  AppendErrorReply(3, ErrorCode::kUnknownPoint, "unknown point id 9", &out);
  EXPECT_EQ(out.rfind("{\"id\":3,\"error\":", 0), 0u);
  EXPECT_EQ(out,
            "{\"id\":3,\"error\":\"unknown point id 9\","
            "\"code\":\"unknown_point\"}\n");
}

TEST(ErrorCodeTest, NamesAreStable) {
  // Wire contract: these spellings are what clients branch on.
  EXPECT_EQ(ErrorCodeName(ErrorCode::kParseError), "parse_error");
  EXPECT_EQ(ErrorCodeName(ErrorCode::kInvalidArgument), "invalid_argument");
  EXPECT_EQ(ErrorCodeName(ErrorCode::kUnknownPoint), "unknown_point");
  EXPECT_EQ(ErrorCodeName(ErrorCode::kOverloaded), "overloaded");
}

TEST(ErrorCodeTest, StatusMapping) {
  EXPECT_EQ(ErrorCodeForStatus(Status::NotFound("unknown point id 3")),
            ErrorCode::kUnknownPoint);
  EXPECT_EQ(ErrorCodeForStatus(Status::ResourceExhausted(
                "mutation backlog full (9 pending); flush or retry")),
            ErrorCode::kOverloaded);
  EXPECT_EQ(ErrorCodeForStatus(
                Status::InvalidArgument("point outside the domain")),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(ErrorCodeForStatus(Status::FailedPrecondition(
                "cannot delete the last remaining point")),
            ErrorCode::kInvalidArgument);
}

TEST(ErrorCodeTest, StatusMappingIsStructuralNotTextual) {
  // Message wording must never decide the wire code: a status whose text
  // merely mentions a mapped keyword keeps its own code's mapping.
  EXPECT_EQ(ErrorCodeForStatus(Status::InvalidArgument(
                "label \"duplicate\" is not a valid label")),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(ErrorCodeForStatus(
                Status::FailedPrecondition("journal backlog full")),
            ErrorCode::kInvalidArgument);
}

TEST(RenderTest, ReplyRoundTripsThroughParserShape) {
  // Every reply the server emits must itself be a line the parser's string
  // and integer rules agree on (guards accidental raw control bytes).
  std::string out;
  AppendErrorReply(-3, ErrorCode::kInvalidArgument, "tab\there", &out);
  EXPECT_EQ(out.find('\t'), std::string::npos);
  EXPECT_EQ(out.back(), '\n');
}

// --- adversarial inputs (fuzz corpus regressions) ----------------------------

TEST(ParseRequestTest, DuplicateKeysLastWins) {
  // The grammar does not forbid repeated keys; the parser's documented
  // behaviour is last-assignment-wins. Pin it so a refactor that changes
  // the semantics (e.g. to first-wins or rejection) fails loudly.
  auto r = ParseRequest(R"({"id":1,"id":2,"q":[3,4],"q":[5,6]})");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->id, 2);
  EXPECT_EQ(r->query().q.x, 5);
  EXPECT_EQ(r->query().q.y, 6);
}

TEST(ParseRequestTest, DuplicateAxisKeysMayChangeShape) {
  // "x" is shape-overloaded (range pair vs insert scalar); last-wins
  // applies to the shape too.
  auto r = ParseRequest(R"({"cmd":"insert","x":[1,2],"x":3,"y":4})");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->insert().p.x, 3);

  auto pair_last =
      ParseRequest(R"({"cmd":"range","x":5,"x":[1,2],"y":[0,9]})");
  ASSERT_TRUE(pair_last.ok()) << pair_last.status();
  EXPECT_EQ(pair_last->range().range.x_lo, 1);
}

TEST(ParseRequestTest, RejectsEmbeddedNulBytes) {
  // NUL inside a string is a control character; NUL after the closing
  // brace is trailing garbage. Both must error, neither may truncate the
  // line at the NUL (the classic C-string confusion bug).
  const std::string in_string("{\"cmd\":\"pi\0ng\"}", 15);
  EXPECT_FALSE(ParseRequest(in_string).ok());
  const std::string after_brace("{\"q\":[1,2]}\0", 12);
  EXPECT_FALSE(ParseRequest(after_brace).ok());
}

TEST(ParseRequestTest, RejectsHugeNumericRun) {
  // A 400-digit integer must come back as a clean overflow error, not a
  // crash or a silently wrapped value.
  std::string line = R"({"q":[)";
  line.append(400, '1');
  line += ",2]}";
  auto r = ParseRequest(line);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParseRequestTest, RejectsNestedStructures) {
  // The grammar has no nesting beyond the coordinate pair; anything
  // deeper is rejected at the first unexpected token.
  EXPECT_FALSE(ParseRequest(R"({"q":[[1],2]})").ok());
  EXPECT_FALSE(ParseRequest(R"({"q":{"x":1,"y":2}})").ok());
  EXPECT_FALSE(ParseRequest(R"({"cmd":["ping"]})").ok());
}

}  // namespace
}  // namespace skydia::serve
