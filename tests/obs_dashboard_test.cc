#include "obs/dashboard.h"

#include <string>

#include <gtest/gtest.h>

namespace pbs {
namespace obs {
namespace {

std::string AlertLine(const std::string& kind, const std::string& detail,
                      const std::string& extra = "") {
  return "{\"type\":\"alert\",\"kind\":\"" + kind +
         "\",\"window_id\":1,\"time_ms\":10,\"value\":0.5,"
         "\"threshold\":0.9,\"detail\":\"" +
         detail + "\"" + extra + "}\n";
}

std::string Nested(int depth) {
  return std::string(depth, '[') + "1" + std::string(depth, ']');
}

bool Contains(const std::string& html, const std::string& needle) {
  return html.find(needle) != std::string::npos;
}

TEST(DashboardReaderTest, SkipsPathologicallyDeepLine) {
  // Two million '[' used to recurse once per bracket and overflow the
  // stack; past the depth bound the line is malformed like any other.
  const std::string jsonl = AlertLine("before", "ok") +
                            std::string(2000000, '[') + "\n" +
                            AlertLine("after", "ok");
  const std::string html = RenderDashboardHtml(jsonl, "deep");
  EXPECT_TRUE(Contains(html, "before"));
  EXPECT_TRUE(Contains(html, "after"));
  EXPECT_TRUE(Contains(html, "2 alerts"));
}

TEST(DashboardReaderTest, DepthBoundKeepsSchemaDepthLines) {
  const std::string jsonl =
      AlertLine("shallow", "ok", ",\"extra\":" + Nested(32)) +
      AlertLine("too_deep", "ok", ",\"extra\":" + Nested(100));
  const std::string html = RenderDashboardHtml(jsonl, "depth");
  EXPECT_TRUE(Contains(html, "shallow"));
  EXPECT_FALSE(Contains(html, "too_deep"));
  EXPECT_TRUE(Contains(html, "1 alerts"));
}

TEST(DashboardReaderTest, UnicodeEscapeNeedsFourHexDigits) {
  const std::string jsonl = AlertLine("good_escape", "caf\\u0065 \\u00E9") +
                            AlertLine("bad_escape", "x\\u00zzy") +
                            AlertLine("short_escape", "x\\u12");
  const std::string html = RenderDashboardHtml(jsonl, "escapes");
  EXPECT_TRUE(Contains(html, "good_escape"));
  // e decodes; non-ASCII code points render as '?'.
  EXPECT_TRUE(Contains(html, "cafe ?"));
  EXPECT_FALSE(Contains(html, "bad_escape"));
  EXPECT_FALSE(Contains(html, "short_escape"));
  EXPECT_TRUE(Contains(html, "1 alerts"));
}

}  // namespace
}  // namespace obs
}  // namespace pbs
