// Block-log framing: the append-only, line-oriented text layout shared by
// both durability journals (platform/journal.hpp, mcs-journal-v1, and
// service/journal.hpp, mcs-service-journal-v1). A journal format supplies
// only its header line and a payload codec for its block bodies; everything
// below is owned here, once.
//
//     <header>                       # e.g. mcs-service-journal-v1
//     config <raw fingerprint>       # optional; written by every writer
//     begin <kind> <id>
//     <directive> <token>...         # the payload codec's body lines
//     end <kind> <id>
//     begin <kind> <id>
//     ...
//
// Lines follow the auction::io text conventions: '#' starts a comment and
// blank lines are ignored. The `config` and `error` directives instead take
// the raw remainder of their line, since a fingerprint or captured exception
// text may contain anything ('#' included); writers pass error text through
// flatten_newlines, so a block can never be torn open by the message it
// carries. Doubles are written with %.17g (format_double) and round-trip
// exactly, so a replayed record is bit-identical to the one written.
//
// Ids are per kind. When parsing asks for BlockIds::kContiguous — and always
// on resume — each kind's ids must run 0, 1, 2, ... in file order; kinds may
// interleave.
//
// Torn tails. A block is valid only once its newline-terminated `end` line
// is present, so a crash mid-append leaves a torn tail that parsing drops. A
// malformed block is also treated as torn when no newline-terminated `end`
// line follows it; a malformed block with a complete block after it is
// corruption and throws PreconditionError naming the line. valid_bytes is
// the byte length of the header, `config` line, and every complete block.
//
// Resume. resume_block_log is the one recovery sequence: load the file (a
// missing file is an empty log), refuse a `config` fingerprint that differs
// from the resuming run's — splicing blocks journaled under one
// configuration into a run under another would void bit-identical replay —
// truncate the torn tail so the next block cannot fuse with it, and open the
// writer after the valid prefix. The writer writes whatever prologue the
// prefix lacks (the header, and the `config` line when a crash tore it), so
// a crash at any byte leaves a log that resumes again.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace mcs::common {

/// The fixed identity of one block-log format.
struct BlockLogFormat {
  std::string_view header;  ///< the file's first line, e.g. "mcs-journal-v1"
  std::string_view name;    ///< names the log in errors, e.g. "campaign journal"
};

/// One meaningful (non-blank, non-comment) line of a block log.
struct BlockLogLine {
  std::size_t number = 0;  ///< 1-based line number in the file
  std::vector<std::string> tokens;  ///< whitespace-split; never empty
  std::string raw_text;  ///< only for the `config` and `error` directives
  /// Byte offset just past this line's '\n'; truncating to it keeps the line.
  std::size_t end_offset = 0;
  /// False when the line is the file's last and lacks its '\n' — a torn write.
  bool terminated = false;
};

/// Cursor over one block's body lines (between `begin` and `end`), with the
/// token codecs a payload codec parses them with. Every failure throws
/// PreconditionError naming the log and the line.
class BlockReader {
 public:
  /// Reads lines[begin, end): the body between the `begin` line at
  /// lines[begin - 1] and the `end` line at lines[end].
  BlockReader(const BlockLogFormat& format, const std::vector<BlockLogLine>& lines,
              std::size_t begin, std::size_t end)
      : format_(format), lines_(lines), begin_(begin), index_(begin), end_(end) {}

  bool at_end() const { return index_ >= end_; }
  const BlockLogLine& peek() const { return lines_[index_]; }
  const BlockLogLine& next();
  /// The next line, which must carry `keyword`.
  const BlockLogLine& expect(std::string_view keyword);
  /// The next line, which must read `<keyword> <count> ...`; returns count.
  std::size_t expect_count(std::string_view keyword);
  /// Fails unless every body line has been consumed.
  void expect_done() const;

  [[noreturn]] void fail(const BlockLogLine& line, const std::string& message) const;
  /// Fails naming the block's `begin` line.
  [[noreturn]] void fail(const std::string& message) const;
  /// Fails with "expected '<usage>'" unless the line has exactly n tokens.
  void expect_tokens(const BlockLogLine& line, std::size_t n, std::string_view usage) const;
  /// Token k of the line, decoded; fails when missing or malformed.
  double number(const BlockLogLine& line, std::size_t k) const;
  std::uint64_t count(const BlockLogLine& line, std::size_t k) const;
  std::int32_t id(const BlockLogLine& line, std::size_t k) const;
  bool flag(const BlockLogLine& line, std::size_t k) const;
  /// The value of a `<keyword> <value>` line that has exactly one.
  double single_number(const BlockLogLine& line) const;
  std::uint64_t single_count(const BlockLogLine& line) const;
  bool single_flag(const BlockLogLine& line) const;
  /// A `<keyword> <count> <id>...` line's ids.
  std::vector<std::int32_t> id_list(const BlockLogLine& line) const;

 private:
  const BlockLogLine& token_line(const BlockLogLine& line, std::size_t k) const;
  const BlockLogLine& single(const BlockLogLine& line) const;

  const BlockLogFormat& format_;
  const std::vector<BlockLogLine>& lines_;
  std::size_t begin_;
  std::size_t index_;
  std::size_t end_;
};

/// A payload codec's block parser: called once per framed block with its
/// kind, id, and body. It must consume the whole body (or fail), and should
/// publish the parsed record only once nothing else in it can fail.
using BlockParser =
    std::function<void(const std::string& kind, std::uint64_t id, BlockReader& body)>;

/// Whether parsing enforces contiguous-from-0 ids per kind.
enum class BlockIds { kAny, kContiguous };

/// The framing facts of a parsed log.
struct BlockLogPrefix {
  std::size_t valid_bytes = 0;  ///< header, `config` line, and complete blocks
  std::string config;           ///< raw fingerprint; empty when absent
  std::size_t blocks = 0;       ///< complete blocks in the valid prefix
};

/// Parses a whole log's text, handing each complete block to parse_block.
/// Throws PreconditionError on a foreign header or on corruption before the
/// last complete block; a torn tail is dropped.
BlockLogPrefix parse_block_log(const BlockLogFormat& format, const std::string& text,
                               const BlockParser& parse_block, BlockIds ids);

/// A log file's text; empty when the file does not exist. Other I/O failures
/// throw std::runtime_error naming the path.
std::string read_block_log(const BlockLogFormat& format, const std::filesystem::path& path);

class BlockLogWriter;

/// The resume sequence (see the file comment): parses the log at `path` with
/// contiguous ids into `prefix`, refuses a fingerprint other than
/// `fingerprint` (a log with no `config` line must hold no blocks),
/// truncates the torn tail, and returns the writer that appends after the
/// valid prefix.
BlockLogWriter resume_block_log(const BlockLogFormat& format, const std::filesystem::path& path,
                                const std::string& fingerprint, const BlockParser& parse_block,
                                BlockLogPrefix& prefix);

/// Appends blocks to a log opened by resume_block_log. Each append is
/// flushed before returning, so the log never lags by more than the block
/// being written.
class BlockLogWriter {
 public:
  /// Throws std::runtime_error naming the path when the write fails.
  void append(const std::string& block);

 private:
  friend BlockLogWriter resume_block_log(const BlockLogFormat&, const std::filesystem::path&,
                                         const std::string&, const BlockParser&,
                                         BlockLogPrefix&);
  BlockLogWriter(const BlockLogFormat& format, const std::filesystem::path& path,
                 const std::string& prologue);

  std::string name_;
  std::filesystem::path path_;
  std::ofstream out_;
};

/// %.17g: the shortest precision that round-trips every double exactly.
std::string format_double(double value);

/// Error text with '\n' and '\r' replaced by spaces, safe for an `error` line.
std::string flatten_newlines(std::string text);

}  // namespace mcs::common
