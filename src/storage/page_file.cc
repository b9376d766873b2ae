#include "storage/page_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "obs/metrics.h"
#include "storage/io_backend.h"

namespace dualsim {
namespace {

std::string Errno(const std::string& what, const std::string& path) {
  return what + " " + path + ": " + std::strerror(errno);
}

struct FileMetrics {
  obs::Counter* reads;
  obs::Counter* bytes_read;
  obs::Counter* read_faults;
  obs::Counter* writes;
  obs::Counter* bytes_written;
  obs::Counter* write_faults;
  obs::Histogram* read_latency_us;
};

FileMetrics& Metrics() {
  static FileMetrics m{
      obs::Metrics().GetCounter("pagefile.reads"),
      obs::Metrics().GetCounter("pagefile.bytes_read"),
      obs::Metrics().GetCounter("pagefile.read_faults"),
      obs::Metrics().GetCounter("pagefile.writes"),
      obs::Metrics().GetCounter("pagefile.bytes_written"),
      obs::Metrics().GetCounter("pagefile.write_faults"),
      obs::Metrics().GetHistogram("pagefile.read_latency_us"),
  };
  return m;
}

}  // namespace

PageFile::~PageFile() {
  if (fd_ >= 0) ::close(fd_);
}

StatusOr<std::unique_ptr<PageFile>> PageFile::Create(
    const std::string& path, std::size_t page_size,
    std::shared_ptr<FaultInjector> injector) {
  if (page_size < 64 || page_size % 8 != 0) {
    return Status::InvalidArgument("bad page size");
  }
  int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_RDWR, 0644);
  if (fd < 0) return Status::IOError(Errno("create", path));
  auto file = std::unique_ptr<PageFile>(
      new PageFile(fd, path, page_size, /*num_pages=*/0,
                   /*bypass_os_cache=*/false));
  file->SetFaultInjector(std::move(injector));
  return file;
}

StatusOr<std::unique_ptr<PageFile>> PageFile::Open(
    const std::string& path, std::size_t page_size, bool bypass_os_cache,
    std::shared_ptr<FaultInjector> injector) {
  int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound(Errno("open", path));
    return Status::IOError(Errno("open", path));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError(Errno("fstat", path));
  }
  if (st.st_size % static_cast<off_t>(page_size) != 0) {
    ::close(fd);
    return Status::InvalidArgument("file size not a multiple of page size: " +
                                   path);
  }
  const PageId num_pages =
      static_cast<PageId>(st.st_size / static_cast<off_t>(page_size));
#ifdef POSIX_FADV_DONTNEED
  if (bypass_os_cache) {
    ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
  }
#endif
  auto file = std::unique_ptr<PageFile>(
      new PageFile(fd, path, page_size, num_pages, bypass_os_cache));
  file->SetFaultInjector(std::move(injector));
  return file;
}

Status PageFile::ConsultReadFaults(PageId pid, std::byte* out) const {
  if (injector_ == nullptr) return Status::OK();
  FaultDecision fault = injector_->OnRead(pid);
  if (fault.latency_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(fault.latency_us));
  }
  if (!fault.status.ok()) {
    // Short read: transfer the prefix the "device" managed, then fail.
    if (fault.truncate_to < page_size_ && fault.truncate_to > 0) {
      const off_t offset =
          static_cast<off_t>(pid) * static_cast<off_t>(page_size_);
      (void)io_internal::PreadFull(fd_, path_, out, fault.truncate_to, offset);
    }
    Metrics().read_faults->Increment();
    return fault.status;
  }
  return Status::OK();
}

void PageFile::DropOsCache(PageId pid) const {
#ifdef POSIX_FADV_DONTNEED
  if (bypass_os_cache_) {
    const off_t offset =
        static_cast<off_t>(pid) * static_cast<off_t>(page_size_);
    ::posix_fadvise(fd_, offset, static_cast<off_t>(page_size_),
                    POSIX_FADV_DONTNEED);
  }
#else
  (void)pid;
#endif
}

Status PageFile::ReadPage(PageId pid, std::byte* out) const {
  if (pid >= num_pages_) return Status::InvalidArgument("page out of range");
  const auto start = std::chrono::steady_clock::now();
  Metrics().reads->Increment();
  DUALSIM_RETURN_IF_ERROR(ConsultReadFaults(pid, out));
  const off_t offset = static_cast<off_t>(pid) * static_cast<off_t>(page_size_);
  Status status = io_internal::PreadFull(fd_, path_, out, page_size_, offset);
  if (!status.ok()) {
    Metrics().read_faults->Increment();
    return status;
  }
  Metrics().bytes_read->Increment(page_size_);
  Metrics().read_latency_us->Record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  DropOsCache(pid);
  return Status::OK();
}

Status PageFile::WritePage(PageId pid, const std::byte* data) {
  Metrics().writes->Increment();
  const off_t offset = static_cast<off_t>(pid) * static_cast<off_t>(page_size_);
  if (injector_ != nullptr) {
    FaultDecision fault = injector_->OnWrite(pid);
    if (fault.latency_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(fault.latency_us));
    }
    if (!fault.status.ok()) {
      // Torn write: persist the prefix, then fail — the on-disk page is
      // left partially written, as after a crash mid-write.
      if (fault.truncate_to < page_size_ && fault.truncate_to > 0) {
        if (::pwrite(fd_, data, fault.truncate_to, offset) >= 0 &&
            pid >= num_pages_) {
          num_pages_ = pid + 1;  // the file did grow (by a torn page)
        }
      }
      Metrics().write_faults->Increment();
      return fault.status;
    }
  }
  std::size_t done = 0;
  while (done < page_size_) {
    const ssize_t n = ::pwrite(fd_, data + done, page_size_ - done,
                               offset + static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      Metrics().write_faults->Increment();
      return Status::IOError(Errno("pwrite", path_));
    }
    if (n == 0) {
      // pwrite returning 0 for a non-zero count means no progress is
      // possible; looping would spin forever.
      Metrics().write_faults->Increment();
      return Status::IOError("short write to " + path_);
    }
    done += static_cast<std::size_t>(n);
  }
  Metrics().bytes_written->Increment(page_size_);
  if (pid >= num_pages_) num_pages_ = pid + 1;
  return Status::OK();
}

StatusOr<PageId> PageFile::AppendPage(const std::byte* data) {
  const PageId pid = num_pages_;
  DUALSIM_RETURN_IF_ERROR(WritePage(pid, data));
  return pid;
}

Status PageFile::Sync() {
  if (::fsync(fd_) != 0) return Status::IOError(Errno("fsync", path_));
  return Status::OK();
}

}  // namespace dualsim
