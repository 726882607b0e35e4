// The record codec every persisted text format shares: "ncckpt"
// checkpoints (core/checkpoint.h), "nchub" telemetry snapshots
// (obs/telemetry.h), "ncplay" playbook scenarios (playbook/scenario.h)
// and "nccache" cache configs (cache/cache.h).
//
// A document is a header line "<magic> <version>" followed by records,
// one per line: a key token, then value tokens. One rule serves every
// format:
//   * runs of spaces separate tokens;
//   * unsigned integers are decimal and doubles are C hexfloats
//     (FormatHexDouble), so every double - infinities included -
//     round-trips byte-exactly; both go through common/numeric.h, so the
//     process locale never matters;
//   * every line ends in '\n': a final line without one is a torn write,
//     and the document is rejected;
//   * a format's "end" footer, where it has one, must be the last line
//     (RecordReader::End).
// Parse errors are InvalidArgument "<magic> line N: why", with the header
// as line 1.

#ifndef NC_COMMON_RECORD_CODEC_H_
#define NC_COMMON_RECORD_CODEC_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

#include "common/status.h"

namespace nc {

class RecordWriter {
 public:
  // Starts the document with its "<magic> <version>" header line.
  RecordWriter(std::string_view magic, uint32_t version);

  // Starts a record on a new line.
  RecordWriter& Key(std::string_view key);

  // Append one value token to the current record.
  RecordWriter& UInt(uint64_t v);
  RecordWriter& Hex(double v);
  // Raw text, which may hold spaces of its own; an empty word appends
  // nothing, so it reads back through Record::TakeRest as "".
  RecordWriter& Word(std::string_view word);

  // Ends the last line and returns the document.
  std::string Finish();

 private:
  std::string text_;
};

// One line's tokens. Each Take reads the next value token; a missing or
// malformed one fails the record, and the failure sticks: later takes
// return zero values and Done() stays false.
class Record {
 public:
  Record() = default;
  explicit Record(std::string_view line);

  std::string_view key() const { return key_; }

  std::string_view Take();
  uint64_t TakeUInt();
  double TakeHex();
  // "0" or "1".
  bool TakeFlag();
  // The raw rest of the line, for values that hold spaces (RNG states,
  // the attempt trace).
  std::string_view TakeRest();

  bool ok() const { return !failed_; }
  // True when every token was taken and none failed.
  bool Done() const;

 private:
  std::string_view key_;
  std::string_view rest_;
  bool failed_ = false;
};

// Reads a document line by line. The text must outlive the reader and
// every Record it fills.
class RecordReader {
 public:
  RecordReader(std::string_view magic, std::string_view text);

  // Reads the header line, whose version must be one of `accepted`, into
  // *version (when non-null). Rejects a torn final line up front.
  Status Header(std::initializer_list<uint32_t> accepted,
                uint32_t* version = nullptr);

  // Reads the next line into *record; false at the end of the document.
  bool Next(Record* record);

  // Next() for fixed-order formats: the line must exist and carry `key`.
  Status Expect(std::string_view key, Record* record);

  // OK when no line follows the last record read.
  Status End();

  // InvalidArgument "<magic> line N: why", for the line Next last
  // reached.
  Status Fail(std::string_view why) const;

 private:
  std::string_view magic_;
  std::string_view text_;
  size_t pos_ = 0;
  size_t line_ = 0;
};

}  // namespace nc

#endif  // NC_COMMON_RECORD_CODEC_H_
