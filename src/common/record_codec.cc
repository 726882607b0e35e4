#include "common/record_codec.h"

#include <algorithm>

#include "common/numeric.h"

namespace nc {

RecordWriter::RecordWriter(std::string_view magic, uint32_t version)
    : text_(magic) {
  UInt(version);
}

RecordWriter& RecordWriter::Key(std::string_view key) {
  text_ += '\n';
  text_ += key;
  return *this;
}

RecordWriter& RecordWriter::UInt(uint64_t v) {
  return Word(std::to_string(v));
}

RecordWriter& RecordWriter::Hex(double v) { return Word(FormatHexDouble(v)); }

RecordWriter& RecordWriter::Word(std::string_view word) {
  if (!word.empty()) {
    text_ += ' ';
    text_ += word;
  }
  return *this;
}

std::string RecordWriter::Finish() {
  text_ += '\n';
  return std::move(text_);
}

Record::Record(std::string_view line) : rest_(line) { key_ = Take(); }

std::string_view Record::Take() {
  const size_t begin = rest_.find_first_not_of(' ');
  if (failed_ || begin == std::string_view::npos) {
    failed_ = true;
    rest_ = {};
    return {};
  }
  const size_t end = std::min(rest_.find(' ', begin), rest_.size());
  const std::string_view token = rest_.substr(begin, end - begin);
  rest_.remove_prefix(end);
  return token;
}

uint64_t Record::TakeUInt() {
  uint64_t v = 0;
  if (!ParseUInt64(Take(), &v)) failed_ = true;
  return failed_ ? 0 : v;
}

double Record::TakeHex() {
  double v = 0.0;
  if (!ParseDouble(Take(), &v)) failed_ = true;
  return failed_ ? 0.0 : v;
}

bool Record::TakeFlag() {
  const uint64_t v = TakeUInt();
  if (v > 1) failed_ = true;
  return !failed_ && v == 1;
}

std::string_view Record::TakeRest() {
  const size_t begin = std::min(rest_.find_first_not_of(' '), rest_.size());
  const std::string_view raw = rest_.substr(begin);
  rest_ = {};
  return failed_ ? std::string_view{} : raw;
}

bool Record::Done() const {
  return !failed_ && rest_.find_first_not_of(' ') == std::string_view::npos;
}

RecordReader::RecordReader(std::string_view magic, std::string_view text)
    : magic_(magic), text_(text) {}

Status RecordReader::Header(std::initializer_list<uint32_t> accepted,
                            uint32_t* version) {
  if (!text_.empty() && text_.back() != '\n') {
    line_ = 1 + static_cast<size_t>(
                    std::count(text_.begin(), text_.end(), '\n'));
    return Fail("last line has no newline (torn write)");
  }
  Record header;
  std::string_view token;
  if (Next(&header) && header.key() == magic_) token = header.Take();
  std::string expected = "expected header";
  for (const uint32_t a : accepted) {
    if (header.key() == magic_ && header.Done() &&
        token == std::to_string(a)) {
      if (version != nullptr) *version = a;
      return Status::OK();
    }
    expected += a == *accepted.begin() ? " \"" : " or \"";
    expected += std::string(magic_) + " " + std::to_string(a) + "\"";
  }
  return Fail(expected);
}

bool RecordReader::Next(Record* record) {
  ++line_;
  if (pos_ >= text_.size()) return false;
  const size_t eol = std::min(text_.find('\n', pos_), text_.size());
  *record = Record(text_.substr(pos_, eol - pos_));
  pos_ = eol + 1;
  return true;
}

Status RecordReader::Expect(std::string_view key, Record* record) {
  if (!Next(record)) {
    return Fail("truncated before \"" + std::string(key) + "\"");
  }
  if (record->key() != key) {
    return Fail("expected \"" + std::string(key) + "\"");
  }
  return Status::OK();
}

Status RecordReader::End() {
  Record extra;
  if (Next(&extra)) return Fail("content after the last record");
  return Status::OK();
}

Status RecordReader::Fail(std::string_view why) const {
  return Status::InvalidArgument(std::string(magic_) + " line " +
                                 std::to_string(line_) + ": " +
                                 std::string(why));
}

}  // namespace nc
