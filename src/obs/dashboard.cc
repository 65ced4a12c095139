#include "obs/dashboard.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace pbs {
namespace obs {

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON reader for the telemetry artifact's own output schema
// (objects, arrays, strings, numbers, booleans). Tolerant: a malformed
// line — including one nested deeper than kMaxJsonDepth, which the schema
// never is — fails the parse and is skipped by the renderer.

constexpr int kMaxJsonDepth = 64;

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<JsonValue> items;
  std::map<std::string, JsonValue> fields;

  bool Has(const std::string& name) const { return fields.count(name) != 0; }
  double Num(const std::string& name, double fallback = 0.0) const {
    const auto it = fields.find(name);
    return it != fields.end() && it->second.kind == kNumber
               ? it->second.number
               : fallback;
  }
  std::string Str(const std::string& name) const {
    const auto it = fields.find(name);
    return it != fields.end() && it->second.kind == kString ? it->second.text
                                                            : std::string();
  }
};

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) { return ParseValue(out, 0); }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\' && pos_ < text_.size()) {
        char escaped = text_[pos_++];
        switch (escaped) {
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            // Exactly four hex digits; anything else is malformed.
            if (pos_ + 4 > text_.size()) return false;
            int code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              if (!std::isxdigit(static_cast<unsigned char>(h))) return false;
              code = code * 16 + (std::isdigit(static_cast<unsigned char>(h))
                                      ? h - '0'
                                      : std::tolower(h) - 'a' + 10);
            }
            out->push_back(static_cast<char>(code < 128 ? code : '?'));
            break;
          }
          default: out->push_back(escaped);
        }
      } else {
        out->push_back(c);
      }
    }
    return false;
  }
  bool ParseValue(JsonValue* out, int depth) {
    SkipSpace();
    if (pos_ >= text_.size() || depth > kMaxJsonDepth) return false;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->kind = JsonValue::kObject;
      SkipSpace();
      if (Consume('}')) return true;
      while (true) {
        std::string key;
        if (!ParseString(&key) || !Consume(':')) return false;
        JsonValue value;
        if (!ParseValue(&value, depth + 1)) return false;
        out->fields.emplace(std::move(key), std::move(value));
        if (Consume('}')) return true;
        if (!Consume(',')) return false;
      }
    }
    if (c == '[') {
      ++pos_;
      out->kind = JsonValue::kArray;
      SkipSpace();
      if (Consume(']')) return true;
      while (true) {
        JsonValue value;
        if (!ParseValue(&value, depth + 1)) return false;
        out->items.push_back(std::move(value));
        if (Consume(']')) return true;
        if (!Consume(',')) return false;
      }
    }
    if (c == '"') {
      out->kind = JsonValue::kString;
      return ParseString(&out->text);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      out->kind = JsonValue::kBool;
      out->boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out->kind = JsonValue::kBool;
      pos_ += 5;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      out->kind = JsonValue::kNull;
      pos_ += 4;
      return true;
    }
    char* end = nullptr;
    const double number = std::strtod(text_.c_str() + pos_, &end);
    if (end == text_.c_str() + pos_) return false;
    out->kind = JsonValue::kNumber;
    out->number = number;
    pos_ = static_cast<size_t>(end - text_.c_str());
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

std::string HtmlEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    switch (c) {
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '&': out += "&amp;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// SVG line charts.

struct Series {
  std::string label;
  std::string color;
  std::vector<std::pair<double, double>> points;  // (x, y)
  bool dashed = false;
};

std::string Fmt(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.4g", v);
  return buffer;
}

/// One fixed-size chart: polylines over a shared [min, max] frame with
/// four horizontal gridlines and min/max labels on both axes.
std::string RenderChart(const std::string& title,
                        const std::vector<Series>& series, double y_floor,
                        const std::vector<double>& marks = {}) {
  constexpr double kW = 860, kH = 220, kL = 56, kR = 12, kT = 26, kB = 22;
  double x_min = 0, x_max = 1, y_min = y_floor, y_max = y_floor + 1e-9;
  bool any = false;
  for (const Series& s : series) {
    for (const auto& [x, y] : s.points) {
      if (!any) {
        x_min = x_max = x;
        any = true;
      }
      x_min = std::min(x_min, x);
      x_max = std::max(x_max, x);
      y_min = std::min(y_min, y);
      y_max = std::max(y_max, y);
    }
  }
  if (x_max <= x_min) x_max = x_min + 1.0;
  if (y_max <= y_min) y_max = y_min + 1.0;
  const auto sx = [&](double x) {
    return kL + (x - x_min) / (x_max - x_min) * (kW - kL - kR);
  };
  const auto sy = [&](double y) {
    return kH - kB - (y - y_min) / (y_max - y_min) * (kH - kT - kB);
  };
  std::ostringstream svg;
  svg << "<div class=\"card\"><h2>" << HtmlEscape(title) << "</h2>"
      << "<svg viewBox=\"0 0 " << kW << " " << kH << "\" role=\"img\">";
  for (int g = 0; g <= 4; ++g) {
    const double y = y_min + (y_max - y_min) * g / 4.0;
    svg << "<line x1=\"" << kL << "\" y1=\"" << Fmt(sy(y)) << "\" x2=\""
        << kW - kR << "\" y2=\"" << Fmt(sy(y)) << "\" class=\"grid\"/>"
        << "<text x=\"" << kL - 6 << "\" y=\"" << Fmt(sy(y) + 4)
        << "\" class=\"tick\">" << Fmt(y) << "</text>";
  }
  for (double mark : marks) {
    if (mark < x_min || mark > x_max) continue;
    svg << "<line x1=\"" << Fmt(sx(mark)) << "\" y1=\"" << kT << "\" x2=\""
        << Fmt(sx(mark)) << "\" y2=\"" << kH - kB
        << "\" class=\"alertmark\"/>";
  }
  double legend_x = kL;
  for (const Series& s : series) {
    if (s.points.empty()) continue;
    svg << "<polyline fill=\"none\" stroke=\"" << s.color
        << "\" stroke-width=\"1.8\"";
    if (s.dashed) svg << " stroke-dasharray=\"6 4\"";
    svg << " points=\"";
    for (const auto& [x, y] : s.points) {
      svg << Fmt(sx(x)) << "," << Fmt(sy(y)) << " ";
    }
    svg << "\"/>";
    svg << "<text x=\"" << Fmt(legend_x) << "\" y=\"" << kT - 10
        << "\" fill=\"" << s.color << "\" class=\"legend\">"
        << HtmlEscape(s.label) << "</text>";
    legend_x += 10.0 * (s.label.size() + 2);
  }
  svg << "<text x=\"" << Fmt(kL) << "\" y=\"" << kH - 6
      << "\" class=\"tick\">" << Fmt(x_min) << " ms</text>"
      << "<text x=\"" << Fmt(kW - kR) << "\" y=\"" << kH - 6
      << "\" class=\"tick\" text-anchor=\"end\">" << Fmt(x_max)
      << " ms</text></svg></div>\n";
  return svg.str();
}

}  // namespace

std::string RenderDashboardHtml(const std::string& telemetry_jsonl,
                                const std::string& title) {
  std::vector<JsonValue> samples, alerts, decisions;
  JsonValue meta;
  size_t window_lines = 0;
  std::istringstream lines(telemetry_jsonl);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    JsonValue value;
    JsonReader reader(line);
    if (!reader.Parse(&value) || value.kind != JsonValue::kObject) continue;
    const std::string type = value.Str("type");
    if (type == "sample") samples.push_back(std::move(value));
    else if (type == "alert") alerts.push_back(std::move(value));
    else if (type == "decision") decisions.push_back(std::move(value));
    else if (type == "meta") meta = std::move(value);
    else if (type == "window") ++window_lines;
  }

  const auto make_series = [](const char* label, const char* color,
                              bool dashed = false) {
    Series s;
    s.label = label;
    s.color = color;
    s.dashed = dashed;
    return s;
  };
  Series measured = make_series("measured fresh", "#1b7837");
  Series predicted = make_series("predicted fresh", "#542788", true);
  Series p50 = make_series("p50", "#2166ac");
  Series p99 = make_series("p99", "#b2182b");
  Series pred_p99 = make_series("predicted p99", "#542788", true);
  Series drift = make_series("drift score", "#e08214");
  Series hedges = make_series("hedges", "#8073ac");
  Series retries = make_series("retries", "#d6604d");
  Series stale = make_series("stale reads", "#b2182b");
  for (const JsonValue& s : samples) {
    const double t = s.Num("end_ms");
    measured.points.emplace_back(t, s.Num("measured_fresh"));
    if (s.Has("predicted_fresh")) {
      predicted.points.emplace_back(t, s.Num("predicted_fresh"));
    }
    p50.points.emplace_back(t, s.Num("read_p50_ms"));
    p99.points.emplace_back(t, s.Num("read_p99_ms"));
    if (s.Has("predicted_p99_ms")) {
      pred_p99.points.emplace_back(t, s.Num("predicted_p99_ms"));
    }
    drift.points.emplace_back(t, s.Num("drift_score"));
    hedges.points.emplace_back(t, s.Num("hedges"));
    retries.points.emplace_back(t, s.Num("retries"));
    stale.points.emplace_back(t, s.Num("stale"));
  }
  std::vector<double> alert_marks;
  for (const JsonValue& a : alerts) alert_marks.push_back(a.Num("time_ms"));

  std::ostringstream html;
  html << "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n<title>"
       << HtmlEscape(title) << "</title>\n<style>\n"
       << "body{font:14px/1.45 system-ui,sans-serif;margin:24px;"
          "background:#fafafa;color:#222}\n"
       << "h1{font-size:20px}h2{font-size:14px;margin:0 0 4px}\n"
       << ".card{background:#fff;border:1px solid #ddd;border-radius:6px;"
          "padding:12px;margin:0 0 16px;max-width:900px}\n"
       << "svg{width:100%;height:auto}\n"
       << ".grid{stroke:#eee}.tick{font-size:10px;fill:#888;"
          "text-anchor:end}.legend{font-size:11px}\n"
       << ".alertmark{stroke:#d73027;stroke-width:1.2;"
          "stroke-dasharray:2 3}\n"
       << "table{border-collapse:collapse;width:100%;font-size:12px}\n"
       << "th,td{border:1px solid #ddd;padding:3px 8px;text-align:left}\n"
       << "th{background:#f4f4f4}\n"
       << ".chosen{background:#e6f4e6}.alert{color:#b2182b;"
          "font-weight:600}\n"
       << "</style></head><body>\n<h1>" << HtmlEscape(title) << "</h1>\n";
  html << "<p>" << samples.size() << " monitor windows · " << window_lines
       << " time-series windows · " << alerts.size() << " alerts · "
       << decisions.size() << " controller decisions";
  if (meta.Has("window_ms") && meta.Num("window_ms") > 0.0) {
    html << " · window " << Fmt(meta.Num("window_ms")) << " ms";
  }
  html << "</p>\n";

  html << RenderChart("Freshness: measured vs. predicted",
                      {measured, predicted}, 0.0, alert_marks);
  html << RenderChart("Read latency (ms): measured quantiles vs. prediction",
                      {p50, p99, pred_p99}, 0.0, alert_marks);
  html << RenderChart("Drift score (1.0 = tolerance)", {drift}, 0.0,
                      alert_marks);
  html << RenderChart("Mitigation traffic per window",
                      {hedges, retries, stale}, 0.0, alert_marks);

  html << "<div class=\"card\"><h2>Alerts</h2>";
  if (alerts.empty()) {
    html << "<p>No alerts raised.</p>";
  } else {
    html << "<table><tr><th>kind</th><th>window</th><th>t (ms)</th>"
            "<th>value</th><th>threshold</th><th>detail</th></tr>";
    for (const JsonValue& a : alerts) {
      html << "<tr><td class=\"alert\">" << HtmlEscape(a.Str("kind"))
           << "</td><td>" << Fmt(a.Num("window_id")) << "</td><td>"
           << Fmt(a.Num("time_ms")) << "</td><td>" << Fmt(a.Num("value"))
           << "</td><td>" << Fmt(a.Num("threshold")) << "</td><td>"
           << HtmlEscape(a.Str("detail")) << "</td></tr>";
    }
    html << "</table>";
  }
  html << "</div>\n";

  html << "<div class=\"card\"><h2>Controller decisions</h2>";
  if (decisions.empty()) {
    html << "<p>No controller ran.</p>";
  } else {
    html << "<table><tr><th>id</th><th>t (ms)</th><th>action</th>"
            "<th>quorum</th><th>pred fresh</th><th>pred p99</th>"
            "<th>meas fresh</th><th>meas p99</th><th>candidates "
            "(rejected in gray)</th></tr>";
    for (const JsonValue& d : decisions) {
      html << "<tr><td>" << Fmt(d.Num("id")) << "</td><td>"
           << Fmt(d.Num("time_ms")) << "</td><td>"
           << HtmlEscape(d.Str("action")) << "</td><td>R∈[";
      html << Fmt(d.Num("r_lo")) << "," << Fmt(d.Num("r_hi")) << "] mix "
           << Fmt(d.Num("mix")) << " W=" << Fmt(d.Num("w")) << "</td><td>"
           << Fmt(d.Num("predicted_fresh")) << "</td><td>"
           << Fmt(d.Num("predicted_p99_ms")) << "</td><td>"
           << (d.Num("measured_fresh", -1.0) >= 0.0
                   ? Fmt(d.Num("measured_fresh"))
                   : std::string("—"))
           << "</td><td>" << Fmt(d.Num("measured_p99_ms")) << "</td><td>";
      const auto it = d.fields.find("candidates");
      if (it != d.fields.end() && it->second.kind == JsonValue::kArray) {
        for (const JsonValue& c : it->second.items) {
          const bool chosen = c.fields.count("chosen") != 0 &&
                              c.fields.at("chosen").boolean;
          html << "<span" << (chosen ? " class=\"chosen\"" : " style=\"color:#999\"")
               << ">" << HtmlEscape(c.Str("action")) << " (p="
               << Fmt(c.Num("predicted_fresh")) << ", p99="
               << Fmt(c.Num("predicted_p99_ms")) << ")</span> ";
        }
      }
      html << "</td></tr>";
    }
    html << "</table>";
  }
  html << "</div>\n</body></html>\n";
  return html.str();
}

}  // namespace obs
}  // namespace pbs
