#include "util/frame.hpp"

#include <filesystem>
#include <fstream>

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
