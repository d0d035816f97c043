#pragma once
// Helpers for the hostile-input cases of the artifact readers' reject tests:
// plant one bad value (or drop one field) in a dumped document, then require
// the reader to throw its documented error type with a message that names the
// field's path.

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "obs/json.hpp"

namespace multihit::hostile {

/// `text` with the value of the first `"key":` at or after the first
/// occurrence of `anchor` replaced by `value`. Only scalar values are
/// replaced: the old value runs to the next ',', ']' or '}'.
inline std::string plant(std::string text, std::string_view key, std::string_view value,
                         std::string_view anchor = {}) {
  const std::size_t from = anchor.empty() ? 0 : text.find(anchor);
  const std::string needle = "\"" + std::string(key) + "\":";
  const std::size_t at = from == std::string::npos ? from : text.find(needle, from);
  if (at == std::string::npos) {
    ADD_FAILURE() << "no " << needle << " after " << anchor;
    return text;
  }
  const std::size_t begin = at + needle.size();
  const std::size_t end = text.find_first_of(",]}", begin);
  return text.replace(begin, end - begin, value);
}

/// `text` without the first `"key":<scalar>,` at or after `anchor` — a
/// required field gone missing (the key must not be its object's last).
inline std::string drop(std::string text, std::string_view key, std::string_view anchor = {}) {
  const std::size_t from = anchor.empty() ? 0 : text.find(anchor);
  const std::string needle = "\"" + std::string(key) + "\":";
  const std::size_t at = from == std::string::npos ? from : text.find(needle, from);
  if (at == std::string::npos) {
    ADD_FAILURE() << "no " << needle << " after " << anchor;
    return text;
  }
  return text.erase(at, text.find(',', at) + 1 - at);
}

/// `read(parse(text))` must throw `Error` whose message names `path`.
template <typename Error, typename Read>
void expect_rejected(const Read& read, const std::string& text, std::string_view path) {
  try {
    read(obs::JsonValue::parse(text));
    ADD_FAILURE() << "accepted a document with a bad " << path << ": " << text.substr(0, 160);
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << "message does not name " << path << ": " << e.what();
  }
}

}  // namespace multihit::hostile
