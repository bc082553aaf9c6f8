#include "util/frame.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <utility>

#include "util/error.hpp"

namespace clasp {

frame_cut cut_frame(std::string_view bytes, std::uint32_t max_len) {
  if (bytes.size() < kFrameHeaderBytes) return {};
  binary_reader header(bytes);
  const std::uint32_t len = header.u32();
  const std::uint32_t expect_crc = header.u32();
  if (len > max_len) return {frame_status::bad_length, {}, 0};
  if (bytes.size() - kFrameHeaderBytes < len) return {};
  const std::string_view payload = bytes.substr(kFrameHeaderBytes, len);
  return {crc32(payload) == expect_crc ? frame_status::ok
                                       : frame_status::bad_crc,
          payload, kFrameHeaderBytes + len};
}

void crc_trailer_writer::emit(std::string_view bytes) {
  crc_ = crc32(bytes, crc_);
  os_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  bytes_ += bytes.size();
}

void crc_trailer_writer::drain() {
  emit(buf_.bytes());
  buf_.clear();
}

void crc_trailer_writer::write(std::string_view bytes) {
  drain();
  emit(bytes);
}

std::uint64_t crc_trailer_writer::close() {
  drain();
  buf_.u32(crc_);
  os_.write(buf_.bytes().data(), 4);
  os_.flush();
  return bytes_ + 4;
}

crc_trailer_reader::crc_trailer_reader(std::istream& is,
                                       std::uint64_t stream_bytes,
                                       std::string what)
    : is_(is), what_(std::move(what)) {
  if (stream_bytes < 4) throw invalid_argument_error(what_ + ": truncated");
  unread_ = stream_bytes - 4;
  buf_.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(unread_, kChunk)));
}

void crc_trailer_reader::read_into(char* at, std::size_t n) {
  is_.read(at, static_cast<std::streamsize>(n));
  if (static_cast<std::size_t>(is_.gcount()) != n) {
    throw invalid_argument_error(what_ + ": truncated");
  }
}

binary_reader& crc_trailer_reader::window(std::size_t n) {
  begin_ += reader_.pos();
  const std::size_t have = buf_.size() - begin_;
  if (have < n && unread_ != 0) {
    // Keep the unconsumed tail, then fill the buffer behind it: a whole
    // chunk when the stream holds one, the rest of the payload otherwise,
    // and never less than n (a long string grows the buffer).
    buf_.erase(0, begin_);
    const std::size_t want = static_cast<std::size_t>(std::min<std::uint64_t>(
        unread_, std::max(n, kChunk) - have));
    buf_.resize(have + want);
    read_into(buf_.data() + have, want);
    crc_ = crc32(std::string_view(buf_).substr(have), crc_);
    unread_ -= want;
    begin_ = 0;
  }
  reader_ = binary_reader(std::string_view(buf_).substr(begin_));
  return reader_;
}

std::size_t crc_trailer_reader::count(std::size_t min_item_bytes) {
  const std::uint64_t n = window(kMaxVarintBytes).varint();
  return check_count(n, left(), min_item_bytes);
}

std::string crc_trailer_reader::str() {
  binary_reader length = window(kMaxVarintBytes);
  const std::uint64_t n = length.varint();
  if (n > left() - length.pos()) {
    throw invalid_argument_error(what_ + ": truncated");
  }
  return window(length.pos() + static_cast<std::size_t>(n)).str();
}

void crc_trailer_reader::close() {
  if (!done()) throw invalid_argument_error(what_ + ": trailing bytes");
  char trailer[4];
  read_into(trailer, sizeof(trailer));
  if (binary_reader(std::string_view(trailer, sizeof(trailer))).u32() !=
      crc_) {
    throw invalid_argument_error(what_ + ": CRC mismatch");
  }
}

std::string_view check_crc_trailer(std::string_view content,
                                   const std::string& what) {
  if (content.size() < 4) {
    throw invalid_argument_error(what + ": truncated");
  }
  const std::string_view payload = content.substr(0, content.size() - 4);
  binary_reader trailer(content.substr(content.size() - 4));
  if (trailer.u32() != crc32(payload)) {
    throw invalid_argument_error(what + ": CRC mismatch");
  }
  return payload;
}

void write_crc_file(const std::string& path, std::string_view payload) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw storage_error("cannot write " + path);
  crc_trailer_writer file(out);
  file.write(payload);
  file.close();
  if (!out) throw storage_error("short write on " + path);
}

std::string read_crc_file(const std::string& path) {
  // Sized from the file and read in one call. Anything but a regular
  // file (a directory, say) reads as empty, hence "truncated", rather
  // than as the size its seek reports.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  std::ifstream in(path, std::ios::binary);
  if (!in) throw not_found_error("cannot read " + path);
  std::string content(ec ? 0 : static_cast<std::size_t>(size), '\0');
  in.read(content.data(), static_cast<std::streamsize>(content.size()));
  content.resize(static_cast<std::size_t>(in.gcount()));
  content.resize(check_crc_trailer(content, path).size());
  return content;
}

}  // namespace clasp
