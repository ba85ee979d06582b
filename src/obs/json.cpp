#include "obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "obs/json_dom.hpp"

namespace ppa::obs {

void JsonWriter::separate() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // the key already emitted its comma and ':' follows values
  }
  if (has_element_.back()) out_ << ',';
  has_element_.back() = true;
}

void JsonWriter::begin_object() {
  separate();
  out_ << '{';
  has_element_.push_back(false);
}

void JsonWriter::end_object() {
  has_element_.pop_back();
  out_ << '}';
}

void JsonWriter::begin_array() {
  separate();
  out_ << '[';
  has_element_.push_back(false);
}

void JsonWriter::end_array() {
  has_element_.pop_back();
  out_ << ']';
}

void JsonWriter::key(std::string_view name) {
  if (has_element_.back()) out_ << ',';
  has_element_.back() = true;
  out_ << '"' << json_escape(name) << "\":";
  pending_key_ = true;
}

void JsonWriter::value(std::string_view text) {
  separate();
  out_ << '"' << json_escape(text) << '"';
}

void JsonWriter::write_uint(std::uint64_t number) {
  separate();
  out_ << number;
}

void JsonWriter::write_int(std::int64_t number) {
  separate();
  out_ << number;
}

void JsonWriter::value(double number) {
  separate();
  // JSON has no NaN/Inf; clamp to null, which every reader handles.
  if (!std::isfinite(number)) {
    out_ << "null";
    return;
  }
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, number);
  out_.write(buf, end - buf);
  (void)ec;
}

void JsonWriter::value(bool flag) {
  separate();
  out_ << (flag ? "true" : "false");
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool json_valid(std::string_view text, std::string* error) {
  return json_parse(text, error).has_value();
}

}  // namespace ppa::obs
