#include "obs/json_dom.hpp"

#include <cctype>

namespace ppa::obs {

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [raw_key, member] : members) {
    // raw_key keeps its quotes; compare the interior.
    if (raw_key.size() >= 2 &&
        std::string_view(raw_key).substr(1, raw_key.size() - 2) == key) {
      return &member;
    }
  }
  return nullptr;
}

std::string_view JsonValue::unquoted() const {
  if (kind != Kind::String || raw.size() < 2) return {};
  return std::string_view(raw).substr(1, raw.size() - 2);
}

// ---------------------------------------------------------------------------
// Recursive-descent parser. Mirrors the json.cpp syntax checker, but keeps
// each scalar's raw token so serialization can reproduce the input exactly.
// ---------------------------------------------------------------------------

namespace {

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string error;

  bool fail(const std::string& message) {
    error = message + " at offset " + std::to_string(pos);
    return false;
  }

  void skip_ws() {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) ++pos;
  }

  bool consume(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word, JsonValue::Kind kind, JsonValue& out) {
    if (text.substr(pos, word.size()) != word) return fail("bad literal");
    out.kind = kind;
    out.raw = std::string(word);
    pos += word.size();
    return true;
  }

  bool string_token(std::string& raw) {
    const std::size_t start = pos;
    if (!consume('"')) return fail("expected string");
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') {
        raw = std::string(text.substr(start, pos - start));
        return true;
      }
      if (c == '\\') {
        if (pos >= text.size()) break;
        const char esc = text[pos++];
        if (esc == 'u') {
          for (int k = 0; k < 4; ++k) {
            if (pos >= text.size() ||
                !std::isxdigit(static_cast<unsigned char>(text[pos]))) {
              return fail("bad \\u escape");
            }
            ++pos;
          }
        } else if (std::string_view("\"\\/bfnrt").find(esc) == std::string_view::npos) {
          return fail("bad escape");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      }
    }
    return fail("unterminated string");
  }

  bool number_token(std::string& raw) {
    const std::size_t start = pos;
    (void)consume('-');
    const std::size_t digits = pos;
    while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos]))) ++pos;
    if (pos == digits) return fail("expected number");
    if (pos - digits > 1 && text[digits] == '0') return fail("leading zero");
    if (consume('.')) {
      const std::size_t frac = pos;
      while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos]))) ++pos;
      if (pos == frac) return fail("bad fraction");
    }
    if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
      ++pos;
      if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) ++pos;
      const std::size_t exp = pos;
      while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos]))) ++pos;
      if (pos == exp) return fail("bad exponent");
    }
    raw = std::string(text.substr(start, pos - start));
    return true;
  }

  bool value(JsonValue& out, int depth) {
    if (depth > 256) return fail("nesting too deep");
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    if (c == '{') return object(out, depth);
    if (c == '[') return array(out, depth);
    if (c == '"') {
      out.kind = JsonValue::Kind::String;
      return string_token(out.raw);
    }
    if (c == 't') return literal("true", JsonValue::Kind::Bool, out);
    if (c == 'f') return literal("false", JsonValue::Kind::Bool, out);
    if (c == 'n') return literal("null", JsonValue::Kind::Null, out);
    out.kind = JsonValue::Kind::Number;
    return number_token(out.raw);
  }

  bool object(JsonValue& out, int depth) {
    out.kind = JsonValue::Kind::Object;
    consume('{');
    skip_ws();
    if (consume('}')) return true;
    for (;;) {
      skip_ws();
      std::string key;
      if (!string_token(key)) return false;
      skip_ws();
      if (!consume(':')) return fail("expected ':'");
      JsonValue member;
      if (!value(member, depth + 1)) return false;
      out.members.emplace_back(std::move(key), std::move(member));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return true;
      return fail("expected ',' or '}'");
    }
  }

  bool array(JsonValue& out, int depth) {
    out.kind = JsonValue::Kind::Array;
    consume('[');
    skip_ws();
    if (consume(']')) return true;
    for (;;) {
      JsonValue item;
      if (!value(item, depth + 1)) return false;
      out.items.push_back(std::move(item));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return true;
      return fail("expected ',' or ']'");
    }
  }
};

void serialize_into(const JsonValue& value, std::string& out) {
  switch (value.kind) {
    case JsonValue::Kind::Object: {
      out += '{';
      bool first = true;
      for (const auto& [key, member] : value.members) {
        if (!first) out += ',';
        first = false;
        out += key;
        out += ':';
        serialize_into(member, out);
      }
      out += '}';
      return;
    }
    case JsonValue::Kind::Array: {
      out += '[';
      bool first = true;
      for (const JsonValue& item : value.items) {
        if (!first) out += ',';
        first = false;
        serialize_into(item, out);
      }
      out += ']';
      return;
    }
    default:
      out += value.raw;
      return;
  }
}

}  // namespace

std::optional<JsonValue> json_parse(std::string_view text, std::string* error) {
  Parser parser{text, 0, {}};
  JsonValue root;
  if (!parser.value(root, 0)) {
    if (error != nullptr) *error = parser.error;
    return std::nullopt;
  }
  parser.skip_ws();
  if (parser.pos != text.size()) {
    if (error != nullptr) {
      *error = "trailing garbage at offset " + std::to_string(parser.pos);
    }
    return std::nullopt;
  }
  return root;
}

std::string json_serialize(const JsonValue& value) {
  std::string out;
  serialize_into(value, out);
  return out;
}

// ---------------------------------------------------------------------------
// Schema validation for "ppa.metrics.v1".
// ---------------------------------------------------------------------------

namespace {

bool schema_fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

/// Doubles serialize as a Number, or null when non-finite (JsonWriter
/// clamps NaN/Inf); both shapes are legal wherever a double lives.
bool is_numeric(const JsonValue& v) {
  return v.kind == JsonValue::Kind::Number || v.kind == JsonValue::Kind::Null;
}

bool numbers_only(const JsonValue& array) {
  for (const JsonValue& item : array.items) {
    if (item.kind != JsonValue::Kind::Number) return false;
  }
  return true;
}

bool check_histogram(const JsonValue& h, std::string_view name, std::string* error) {
  const std::string label = "histogram '" + std::string(name) + "'";
  if (h.kind != JsonValue::Kind::Object) return schema_fail(error, label + " not an object");
  const JsonValue* bounds = h.find("bounds");
  const JsonValue* counts = h.find("counts");
  if (bounds == nullptr || bounds->kind != JsonValue::Kind::Array || !numbers_only(*bounds)) {
    return schema_fail(error, label + " missing numeric 'bounds' array");
  }
  if (counts == nullptr || counts->kind != JsonValue::Kind::Array || !numbers_only(*counts)) {
    return schema_fail(error, label + " missing numeric 'counts' array");
  }
  // bounds has one entry per finite bucket; counts has one more (overflow).
  if (counts->items.size() != bounds->items.size() + 1) {
    return schema_fail(error, label + " counts/bounds size mismatch");
  }
  for (const char* field : {"count", "sum", "min", "max"}) {
    const JsonValue* v = h.find(field);
    if (v == nullptr || v->kind != JsonValue::Kind::Number) {
      return schema_fail(error, label + " missing numeric '" + field + "'");
    }
  }
  return true;
}

bool check_numeric_object(const JsonValue* section, std::string_view name,
                          std::string* error) {
  const std::string label = "section '" + std::string(name) + "'";
  if (section == nullptr || section->kind != JsonValue::Kind::Object) {
    return schema_fail(error, label + " missing or not an object");
  }
  for (const auto& [key, member] : section->members) {
    if (!is_numeric(member)) {
      return schema_fail(error, label + " member " + key + " not numeric");
    }
  }
  return true;
}

bool check_convergence(const JsonValue* section, std::string* error) {
  if (section == nullptr || section->kind != JsonValue::Kind::Array) {
    return schema_fail(error, "section 'convergence' missing or not an array");
  }
  for (const JsonValue& sample : section->items) {
    if (sample.kind != JsonValue::Kind::Object) {
      return schema_fail(error, "convergence sample not an object");
    }
    for (const char* field : {"dest", "iter", "active"}) {
      const JsonValue* v = sample.find(field);
      if (v == nullptr || v->kind != JsonValue::Kind::Number) {
        return schema_fail(error,
                           std::string("convergence sample missing numeric '") + field + "'");
      }
    }
    if (const JsonValue* panels = sample.find("panels"); panels != nullptr) {
      if (panels->kind != JsonValue::Kind::Array || !numbers_only(*panels)) {
        return schema_fail(error, "convergence 'panels' not a numeric array");
      }
    }
  }
  return true;
}

bool check_spans(const JsonValue* section, std::string* error) {
  if (section == nullptr || section->kind != JsonValue::Kind::Array) {
    return schema_fail(error, "section 'spans' missing or not an array");
  }
  for (const JsonValue& span : section->items) {
    if (span.kind != JsonValue::Kind::Object) {
      return schema_fail(error, "span record not an object");
    }
    const JsonValue* name = span.find("name");
    if (name == nullptr || name->kind != JsonValue::Kind::String) {
      return schema_fail(error, "span record missing string 'name'");
    }
    const JsonValue* parent = span.find("parent");
    if (parent == nullptr || parent->kind != JsonValue::Kind::Number) {
      return schema_fail(error, "span record missing numeric 'parent'");
    }
    for (const char* field : {"start_us", "dur_us"}) {
      const JsonValue* v = span.find(field);
      if (v == nullptr || !is_numeric(*v)) {
        return schema_fail(error, std::string("span record missing '") + field + "'");
      }
    }
    const JsonValue* steps = span.find("steps");
    if (steps == nullptr || steps->kind != JsonValue::Kind::Object ||
        !check_numeric_object(steps, "steps", error)) {
      return schema_fail(error, "span record missing 'steps' object");
    }
  }
  return true;
}

}  // namespace

bool metrics_document_valid(std::string_view text, std::string* error) {
  std::string parse_error;
  const std::optional<JsonValue> root = json_parse(text, &parse_error);
  if (!root.has_value()) return schema_fail(error, "parse error: " + parse_error);
  if (root->kind != JsonValue::Kind::Object) {
    return schema_fail(error, "document is not an object");
  }

  const JsonValue* schema = root->find("schema");
  if (schema == nullptr || schema->kind != JsonValue::Kind::String ||
      schema->unquoted() != "ppa.metrics.v1") {
    return schema_fail(error, "schema tag is not \"ppa.metrics.v1\"");
  }

  const JsonValue* run = root->find("run");
  if (run == nullptr || run->kind != JsonValue::Kind::Object) {
    return schema_fail(error, "section 'run' missing or not an object");
  }
  for (const char* field : {"workload", "backend"}) {
    const JsonValue* v = run->find(field);
    if (v == nullptr || v->kind != JsonValue::Kind::String) {
      return schema_fail(error, std::string("run missing string '") + field + "'");
    }
  }
  for (const char* field :
       {"n", "host_threads", "batch_width", "simd_steps", "wall_seconds"}) {
    const JsonValue* v = run->find(field);
    if (v == nullptr || !is_numeric(*v)) {
      return schema_fail(error, std::string("run missing numeric '") + field + "'");
    }
  }
  // Optional within v1 (documents predate the active-panel schedule), but
  // when present it must be numeric.
  if (const JsonValue* v = run->find("active_panels");
      v != nullptr && !is_numeric(*v)) {
    return schema_fail(error, "run field 'active_panels' is not numeric");
  }

  if (!check_numeric_object(root->find("counters"), "counters", error)) return false;
  if (!check_numeric_object(root->find("gauges"), "gauges", error)) return false;

  const JsonValue* histograms = root->find("histograms");
  if (histograms == nullptr || histograms->kind != JsonValue::Kind::Object) {
    return schema_fail(error, "section 'histograms' missing or not an object");
  }
  for (const auto& [key, h] : histograms->members) {
    const std::string_view name =
        std::string_view(key).substr(1, key.size() >= 2 ? key.size() - 2 : 0);
    if (!check_histogram(h, name, error)) return false;
  }

  const JsonValue* profile = root->find("profile");
  if (profile == nullptr || profile->kind != JsonValue::Kind::Object) {
    return schema_fail(error, "section 'profile' missing or not an object");
  }
  if (!check_numeric_object(profile->find("wall_seconds"), "profile.wall_seconds", error)) {
    return false;
  }
  if (!check_numeric_object(profile->find("events"), "profile.events", error)) return false;

  if (!check_convergence(root->find("convergence"), error)) return false;
  return check_spans(root->find("spans"), error);
}

}  // namespace ppa::obs
