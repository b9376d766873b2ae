#ifndef DUALSIM_STORAGE_PAGE_FILE_H_
#define DUALSIM_STORAGE_PAGE_FILE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "storage/fault_injection.h"
#include "storage/page.h"
#include "util/status.h"

namespace dualsim {

/// Fixed-size-page file with positional reads/writes (pread/pwrite), safe
/// for concurrent reads from the I/O pool. Optionally asks the OS to drop
/// its cache after each read so that every buffer-pool miss is a *real*
/// device read — the paper bypasses the OS cache for the same reason
/// ("every access to the database incurs a real disk I/O", §6.1).
class PageFile {
 public:
  ~PageFile();

  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  /// Creates (truncates) a page file. An optional `injector` makes every
  /// page write consult the fault plan (torn writes during builds).
  static StatusOr<std::unique_ptr<PageFile>> Create(
      const std::string& path, std::size_t page_size,
      std::shared_ptr<FaultInjector> injector = nullptr);

  /// Opens an existing page file; the size must be a multiple of page_size.
  /// An optional `injector` makes every page access consult the fault plan
  /// before touching the device (see storage/fault_injection.h).
  static StatusOr<std::unique_ptr<PageFile>> Open(
      const std::string& path, std::size_t page_size,
      bool bypass_os_cache = true,
      std::shared_ptr<FaultInjector> injector = nullptr);

  std::size_t page_size() const { return page_size_; }
  PageId num_pages() const { return num_pages_; }
  const std::string& path() const { return path_; }

  /// Reads page `pid` into `out` (page_size bytes).
  Status ReadPage(PageId pid, std::byte* out) const;

  /// Writes page `pid` from `data` (page_size bytes); extends the file.
  Status WritePage(PageId pid, const std::byte* data);

  /// Appends a page; returns its id.
  StatusOr<PageId> AppendPage(const std::byte* data);

  /// Flushes to stable storage.
  Status Sync();

  /// Attaches (or detaches, with nullptr) a fault injector after opening.
  void SetFaultInjector(std::shared_ptr<FaultInjector> injector) {
    injector_ = std::move(injector);
  }
  FaultInjector* fault_injector() const { return injector_.get(); }

  int fd() const { return fd_; }

 private:
  PageFile(int fd, std::string path, std::size_t page_size, PageId num_pages,
           bool bypass_os_cache)
      : fd_(fd),
        path_(std::move(path)),
        page_size_(page_size),
        num_pages_(num_pages),
        bypass_os_cache_(bypass_os_cache) {}

  /// Consults the fault plan for a read of `pid`: applies injected latency,
  /// transfers the short-read prefix into `out`, and returns the injected
  /// error (counting it as a read fault). OK when no injector or no fault.
  Status ConsultReadFaults(PageId pid, std::byte* out) const;

  /// Asks the OS to drop its cache for `pid`'s byte range when the file
  /// was opened with bypass_os_cache (no-op otherwise).
  void DropOsCache(PageId pid) const;

  int fd_;
  std::string path_;
  std::size_t page_size_;
  PageId num_pages_;
  bool bypass_os_cache_;
  std::shared_ptr<FaultInjector> injector_;
};

}  // namespace dualsim

#endif  // DUALSIM_STORAGE_PAGE_FILE_H_
