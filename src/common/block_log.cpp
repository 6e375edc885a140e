#include "common/block_log.hpp"

#include <charconv>
#include <cstdio>
#include <map>
#include <sstream>
#include <stdexcept>

#include "common/check.hpp"

namespace mcs::common {

namespace {

[[noreturn]] void fail(const BlockLogFormat& format, std::size_t line_number,
                       const std::string& message) {
  throw PreconditionError(std::string(format.name) + ", line " + std::to_string(line_number) +
                          ": " + message);
}

std::vector<BlockLogLine> meaningful_lines(const std::string& text) {
  std::vector<BlockLogLine> lines;
  std::size_t number = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    ++number;
    const auto newline = text.find('\n', pos);
    const bool terminated = newline != std::string::npos;
    const std::size_t end_offset = terminated ? newline + 1 : text.size();
    std::string raw = text.substr(pos, (terminated ? newline : text.size()) - pos);
    pos = end_offset;
    if (!raw.empty() && raw.back() == '\r') {
      raw.pop_back();
    }
    const auto first = raw.find_first_not_of(" \t");
    if (first == std::string::npos || raw[first] == '#') {
      continue;
    }
    const auto first_end = raw.find_first_of(" \t", first);
    const std::string keyword = raw.substr(first, first_end - first);
    BlockLogLine line;
    line.number = number;
    line.end_offset = end_offset;
    line.terminated = terminated;
    if (keyword == "error" || keyword == "config") {
      const auto value = raw.find_first_not_of(" \t", first_end);
      line.tokens = {keyword};
      line.raw_text = value == std::string::npos ? "" : raw.substr(value);
    } else {
      std::string body = raw;
      const auto comment = body.find('#');
      if (comment != std::string::npos) {
        body.resize(comment);
      }
      std::istringstream fields(body);
      std::string token;
      while (fields >> token) {
        line.tokens.push_back(std::move(token));
      }
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

/// Parses the whole token as T; false on any malformed or trailing text.
template <typename T>
bool parse_token(const std::string& token, T& value) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  return ec == std::errc() && ptr == end;
}

}  // namespace

const BlockLogLine& BlockReader::next() {
  if (at_end()) {
    fail(lines_[end_], "unexpected end of block");
  }
  return lines_[index_++];
}

const BlockLogLine& BlockReader::expect(std::string_view keyword) {
  const BlockLogLine& line = next();
  if (line.tokens.front() != keyword) {
    fail(line, "expected '" + std::string(keyword) + "', found '" + line.tokens.front() + "'");
  }
  return line;
}

std::size_t BlockReader::expect_count(std::string_view keyword) {
  const BlockLogLine& line = expect(keyword);
  if (line.tokens.size() < 2) {
    fail(line, "expected '" + std::string(keyword) + " <count> ...'");
  }
  return static_cast<std::size_t>(count(line, 1));
}

void BlockReader::expect_done() const {
  if (!at_end()) {
    fail(peek(), "unexpected directive '" + peek().tokens.front() + "'");
  }
}

void BlockReader::fail(const BlockLogLine& line, const std::string& message) const {
  common::fail(format_, line.number, message);
}

void BlockReader::fail(const std::string& message) const {
  fail(lines_[begin_ - 1], message);
}

void BlockReader::expect_tokens(const BlockLogLine& line, std::size_t n,
                                std::string_view usage) const {
  if (line.tokens.size() != n) {
    fail(line, "expected '" + std::string(usage) + "'");
  }
}

const BlockLogLine& BlockReader::token_line(const BlockLogLine& line, std::size_t k) const {
  if (k >= line.tokens.size()) {
    fail(line, "'" + line.tokens.front() + "' is missing field " + std::to_string(k));
  }
  return line;
}

double BlockReader::number(const BlockLogLine& line, std::size_t k) const {
  const std::string& token = token_line(line, k).tokens[k];
  double value{};
  if (!parse_token(token, value)) {
    fail(line, "malformed number '" + token + "'");
  }
  return value;
}

std::uint64_t BlockReader::count(const BlockLogLine& line, std::size_t k) const {
  const std::string& token = token_line(line, k).tokens[k];
  std::uint64_t value{};
  if (!parse_token(token, value)) {
    fail(line, "malformed count '" + token + "'");
  }
  return value;
}

std::int32_t BlockReader::id(const BlockLogLine& line, std::size_t k) const {
  const std::string& token = token_line(line, k).tokens[k];
  std::int32_t value{};
  if (!parse_token(token, value)) {
    fail(line, "malformed id '" + token + "'");
  }
  return value;
}

bool BlockReader::flag(const BlockLogLine& line, std::size_t k) const {
  const std::string& token = token_line(line, k).tokens[k];
  if (token != "0" && token != "1") {
    fail(line, "expected a 0|1 flag, found '" + token + "'");
  }
  return token == "1";
}

const BlockLogLine& BlockReader::single(const BlockLogLine& line) const {
  if (line.tokens.size() != 2) {
    fail(line, "expected '" + line.tokens.front() + " <value>'");
  }
  return line;
}

double BlockReader::single_number(const BlockLogLine& line) const {
  return number(single(line), 1);
}

std::uint64_t BlockReader::single_count(const BlockLogLine& line) const {
  return count(single(line), 1);
}

bool BlockReader::single_flag(const BlockLogLine& line) const { return flag(single(line), 1); }

std::vector<std::int32_t> BlockReader::id_list(const BlockLogLine& line) const {
  const std::size_t n = static_cast<std::size_t>(count(line, 1));
  if (line.tokens.size() != n + 2) {
    fail(line, "'" + line.tokens.front() + "' count does not match the listed ids");
  }
  std::vector<std::int32_t> ids;
  ids.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    ids.push_back(id(line, k + 2));
  }
  return ids;
}

BlockLogPrefix parse_block_log(const BlockLogFormat& format, const std::string& text,
                               const BlockParser& parse_block, BlockIds ids) {
  const auto lines = meaningful_lines(text);
  BlockLogPrefix prefix;
  if (lines.empty()) {
    // Empty (or comment-only) file: an empty log, not corruption — a writer
    // that died before its first byte left nothing to recover.
    return prefix;
  }
  const BlockLogLine& head = lines.front();
  if (head.tokens.size() != 1 || head.tokens.front() != format.header) {
    // A write torn inside the very first line leaves an unterminated strict
    // prefix of the header — a torn tail to drop, not corruption to throw.
    if (lines.size() == 1 && !head.terminated && head.tokens.size() == 1 &&
        format.header.starts_with(head.tokens.front())) {
      return prefix;
    }
    fail(format, head.number, "missing " + std::string(format.header) + " header");
  }
  if (!head.terminated) {
    return prefix;  // torn header write: nothing valid yet
  }
  prefix.valid_bytes = head.end_offset;
  std::size_t i = 1;
  if (i < lines.size() && lines[i].tokens.front() == "config") {
    if (!lines[i].terminated) {
      return prefix;  // torn config write: drop it, the header stands
    }
    prefix.config = lines[i].raw_text;
    prefix.valid_bytes = lines[i].end_offset;
    ++i;
  }
  std::map<std::string, std::uint64_t> next_id;  // per kind
  while (i < lines.size()) {
    std::size_t end = i;
    while (end < lines.size() && lines[end].tokens.front() != "end") {
      ++end;
    }
    if (end == lines.size() || !lines[end].terminated) {
      break;  // torn tail: the block's `end` line was never completely written
    }
    const BlockLogLine& begin = lines[i];
    std::string kind;
    std::uint64_t id = 0;
    try {
      BlockReader body(format, lines, i + 1, end);
      if (begin.tokens.size() != 3 || begin.tokens[0] != "begin") {
        body.fail(begin, "expected 'begin <kind> <id>'");
      }
      kind = begin.tokens[1];
      id = body.count(begin, 2);
      const BlockLogLine& tail = lines[end];
      if (tail.tokens.size() != 3 || tail.tokens[1] != kind || body.count(tail, 2) != id) {
        body.fail(tail, "expected 'end " + kind + " " + std::to_string(id) + "'");
      }
      parse_block(kind, id, body);
    } catch (const PreconditionError&) {
      // A malformed LAST block is a torn append and is dropped; a complete
      // block after it means the damage is real.
      for (std::size_t k = end + 1; k < lines.size(); ++k) {
        if (lines[k].tokens.front() == "end" && lines[k].terminated) {
          throw;
        }
      }
      break;
    }
    if (ids == BlockIds::kContiguous && id != next_id[kind]++) {
      fail(format, begin.number, kind + " ids are not contiguous from 0");
    }
    prefix.valid_bytes = lines[end].end_offset;
    ++prefix.blocks;
    i = end + 1;
  }
  return prefix;
}

std::string read_block_log(const BlockLogFormat& format, const std::filesystem::path& path) {
  if (!std::filesystem::exists(path)) {
    return {};  // no log yet: nothing has been journaled
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open " + std::string(format.name) +
                             " for reading: " + path.string());
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

BlockLogWriter resume_block_log(const BlockLogFormat& format, const std::filesystem::path& path,
                                const std::string& fingerprint, const BlockParser& parse_block,
                                BlockLogPrefix& prefix) {
  prefix = parse_block_log(format, read_block_log(format, path), parse_block,
                           BlockIds::kContiguous);
  if (prefix.config.empty()) {
    MCS_EXPECTS(prefix.blocks == 0,
                std::string(format.name) + " has blocks but no config fingerprint");
  } else {
    MCS_EXPECTS(prefix.config == fingerprint,
                std::string(format.name) +
                    " was written under a different configuration; resuming it would "
                    "splice blocks this run would not produce");
  }
  // Drop any torn tail before appending: the next block must follow the last
  // complete one, or the next replay would meet the torn `begin` with a
  // complete block after it and reject the whole log.
  if (std::filesystem::exists(path) && std::filesystem::file_size(path) > prefix.valid_bytes) {
    std::filesystem::resize_file(path, prefix.valid_bytes);
  }
  std::string prologue;
  if (prefix.valid_bytes == 0) {
    prologue = std::string(format.header) + "\n";
  }
  if (prefix.config.empty() && !fingerprint.empty()) {
    // Also when a crash tore the `config` line off a header-only prefix:
    // blocks appended without it would brick the next resume.
    prologue += "config " + fingerprint + "\n";
  }
  return BlockLogWriter(format, path, prologue);
}

BlockLogWriter::BlockLogWriter(const BlockLogFormat& format, const std::filesystem::path& path,
                               const std::string& prologue)
    : name_(format.name), path_(path) {
  out_.open(path, std::ios::binary | std::ios::app);
  if (!out_) {
    throw std::runtime_error("cannot open " + name_ + " for appending: " + path.string());
  }
  if (!prologue.empty()) {
    append(prologue);
  }
}

void BlockLogWriter::append(const std::string& block) {
  out_ << block;
  out_.flush();
  if (!out_) {
    throw std::runtime_error(name_ + " append failed: " + path_.string());
  }
}

std::string format_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string flatten_newlines(std::string text) {
  for (char& c : text) {
    if (c == '\n' || c == '\r') {
      c = ' ';
    }
  }
  return text;
}

}  // namespace mcs::common
