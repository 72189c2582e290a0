#include "store/tiered_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>

#include "chaos/fault.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace smiler {
namespace store {

namespace {

obs::Gauge& ResidentBytesGauge() {
  static obs::Gauge& g =
      obs::Registry::Global().GetGauge("store.resident_bytes");
  return g;
}

obs::Gauge& ResidentBytesHighWaterGauge() {
  static obs::Gauge& g =
      obs::Registry::Global().GetGauge("store.resident_bytes_high_water");
  return g;
}

obs::Gauge& BudgetBytesGauge() {
  static obs::Gauge& g = obs::Registry::Global().GetGauge("store.budget_bytes");
  return g;
}

obs::Counter& EvictionsCounter() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("store.evictions");
  return c;
}

obs::Counter& EvictFailuresCounter() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("store.evict_failures");
  return c;
}

obs::Counter& RehydrationsCounter() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("store.rehydrations");
  return c;
}

obs::Histogram& RehydrateSecondsHistogram() {
  static obs::Histogram& h =
      obs::Registry::Global().GetHistogram("store.rehydrate_seconds");
  return h;
}

obs::Histogram& SpillSecondsHistogram() {
  static obs::Histogram& h =
      obs::Registry::Global().GetHistogram("store.spill_seconds");
  return h;
}

obs::Histogram& LockWaitSecondsHistogram() {
  static obs::Histogram& h =
      obs::Registry::Global().GetHistogram("store.lock_wait_seconds");
  return h;
}

/// What a resident engine costs against the budget: its index footprint
/// (series, envelopes, posting-list arena) — the same accounting that
/// powers the Fig 12(c) capacity study.
std::size_t EngineFootprintBytes(const core::SensorEngine& engine) {
  return engine.index().MemoryFootprintBytes();
}

}  // namespace

Result<std::size_t> ParseStoreBudget(std::string_view text) {
  const std::string s(text);
  if (!s.empty() && s.find_first_not_of("0123456789") == std::string::npos) {
    errno = 0;
    char* rest = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &rest, 10);
    if (errno == 0 && rest != nullptr && *rest == '\0' &&
        v <= std::numeric_limits<std::size_t>::max()) {
      return static_cast<std::size_t>(v);
    }
  }
  return Status::InvalidArgument(
      "unknown SMILER_STORE_BUDGET_BYTES value '" + s +
      "' (expected a decimal byte count, e.g. 6442450944)");
}

Result<std::size_t> StoreBudgetFromEnv() {
  const char* value = std::getenv("SMILER_STORE_BUDGET_BYTES");
  if (value == nullptr || value[0] == '\0') {
    return std::numeric_limits<std::size_t>::max();  // unlimited
  }
  return ParseStoreBudget(value);
}

TieredStateStore::TieredStateStore(StoreOptions options, std::size_t budget,
                                   Status env_status)
    : opt_(std::move(options)), budget_(budget),
      env_status_(std::move(env_status)) {}

Result<std::unique_ptr<TieredStateStore>> TieredStateStore::Create(
    const StoreOptions& options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("store spill directory must be set");
  }
  if (::mkdir(options.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::Internal("cannot create store directory '" + options.dir +
                            "'");
  }
  struct stat st;
  if (::stat(options.dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    return Status::InvalidArgument("store path '" + options.dir +
                                   "' is not a directory");
  }
  std::size_t budget = options.budget_bytes;
  Status env_status = Status::OK();
  if (budget == 0) {
    // Fail-fast env contract (mirrors SMILER_BACKEND): an invalid value
    // does not fall back to a default — the store constructs, but every
    // operation returns the parse error until the env is fixed.
    auto from_env = StoreBudgetFromEnv();
    if (from_env.ok()) {
      budget = *from_env;
    } else {
      env_status = from_env.status();
    }
  }
  std::unique_ptr<TieredStateStore> store(
      new TieredStateStore(options, budget, std::move(env_status)));
  BudgetBytesGauge().Set(
      budget == std::numeric_limits<std::size_t>::max()
          ? 0.0  // unlimited renders as 0 (no budget) in the exposition
          : static_cast<double>(budget));
  // Registered up front, so a store that never waited exposes a zero
  // count instead of no metric at all.
  LockWaitSecondsHistogram();
  return store;
}

Status TieredStateStore::Bind(core::MultiSensorManager* manager,
                              simgpu::Device* device) {
  SMILER_RETURN_NOT_OK(env_status_);
  if (manager == nullptr || device == nullptr) {
    return Status::InvalidArgument("store needs a manager and a device");
  }
  std::unique_lock<std::mutex> lock = Lock();
  if (manager_ != nullptr) {
    return Status::FailedPrecondition("store is already bound to a fleet");
  }
  for (std::size_t i = 0; i < manager->num_sensors(); ++i) {
    if (!manager->resident(i)) {
      return Status::FailedPrecondition(
          "store binds to fully-resident fleets only");
    }
  }
  manager_ = manager;
  device_ = device;
  slots_.assign(manager->num_sensors(), Slot{});
  resident_bytes_ = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    slots_[i].bytes = EngineFootprintBytes(manager->engine(i));
    resident_bytes_ += slots_[i].bytes;
  }
  PublishGaugesLocked();
  return Status::OK();
}

std::unique_lock<std::mutex> TieredStateStore::Lock() const {
  std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
  Acquire(&lock);
  return lock;
}

void TieredStateStore::Acquire(std::unique_lock<std::mutex>* lock) const {
  if (lock->try_lock()) return;
  WallTimer timer;
  lock->lock();
  LockWaitSecondsHistogram().Observe(timer.ElapsedSeconds());
}

std::string TieredStateStore::SegmentPath(std::size_t sensor) const {
  return opt_.dir + "/sensor-" + std::to_string(sensor) + ".seg";
}

Status TieredStateStore::CheckUsableLocked(std::size_t sensor) const {
  SMILER_RETURN_NOT_OK(env_status_);
  if (manager_ == nullptr) {
    return Status::FailedPrecondition("store is not bound to a fleet");
  }
  if (sensor >= slots_.size()) {
    return Status::OutOfRange("sensor index out of range");
  }
  return Status::OK();
}

void TieredStateStore::PublishGaugesLocked() {
  ResidentBytesGauge().Set(static_cast<double>(resident_bytes_));
  ResidentBytesHighWaterGauge().SetMax(static_cast<double>(resident_bytes_));
}

Status TieredStateStore::Pin(std::size_t sensor) {
  std::unique_lock<std::mutex> lock = Lock();
  SMILER_RETURN_NOT_OK(CheckUsableLocked(sensor));
  Slot& slot = slots_[sensor];
  busy_cv_.wait(lock, [&slot] { return !slot.busy; });
  if (!slot.resident) {
    SMILER_RETURN_NOT_OK(Rehydrate(&lock, sensor));
  }
  ++slot.pins;
  slot.ref = true;
  return Status::OK();
}

void TieredStateStore::Unpin(std::size_t sensor) {
  std::unique_lock<std::mutex> lock = Lock();
  if (sensor < slots_.size() && slots_[sensor].pins > 0) {
    --slots_[sensor].pins;
  }
}

Status TieredStateStore::Evict(std::size_t sensor) {
  std::vector<core::SensorEngine> dropped;  // outlives the lock below
  std::unique_lock<std::mutex> lock = Lock();
  SMILER_RETURN_NOT_OK(CheckUsableLocked(sensor));
  Slot& slot = slots_[sensor];
  busy_cv_.wait(lock, [&slot] { return !slot.busy; });
  if (!slot.resident) return Status::OK();
  if (slot.pins > 0) {
    return Status::FailedPrecondition("sensor is pinned");
  }
  slot.busy = true;
  evicting_bytes_ += slot.bytes;
  return Spill(&lock, {sensor}, &dropped)[0];
}

std::vector<Status> TieredStateStore::Spill(
    std::unique_lock<std::mutex>* lock, const std::vector<std::size_t>& victims,
    std::vector<core::SensorEngine>* dropped) {
  // One victim at a time, so a spilling thread holds at most one
  // snapshot and one encoded blob; both are freed before the relock.
  lock->unlock();
  std::vector<Status> written;
  written.reserve(victims.size());
  for (std::size_t victim : victims) written.push_back(WriteSegment(victim));
  Acquire(lock);
  for (std::size_t i = 0; i < victims.size(); ++i) {
    Slot& slot = slots_[victims[i]];
    slot.busy = false;
    evicting_bytes_ -= slot.bytes;
    if (!written[i].ok()) continue;
    Result<core::SensorEngine> engine = manager_->Release(victims[i]);
    if (!engine.ok()) {
      written[i] = engine.status();
      continue;
    }
    dropped->push_back(std::move(*engine));
    slot.resident = false;
    slot.has_segment = true;
    slot.ref = false;
    resident_bytes_ -= slot.bytes;
    EvictionsCounter().Increment();
  }
  PublishGaugesLocked();
  busy_cv_.notify_all();
  return written;
}

Status TieredStateStore::WriteSegment(std::size_t sensor) const {
  WallTimer timer;
  const std::string blob = core::SerializeSnapshotBlob(
      {manager_->engine(sensor).Snapshot()},
      core::ArenaEncoding::kQuantized16);

  // Atomic segment write: tmp + rename, so a crash (or the injected torn
  // write) never clobbers a previous good segment.
  const std::string path = SegmentPath(sensor);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
    if (!file) {
      EvictFailuresCounter().Increment();
      return Status::Internal("cannot open '" + tmp + "' for writing");
    }
    if (SMILER_FAULT_TRIGGERED("store.spill_write")) {
      // Torn write: half the segment reaches the tmp file and the spill
      // fails — the engine stays resident (budget temporarily exceeded
      // is safe; losing state is not) and any previous segment survives.
      file.write(blob.data(), static_cast<std::streamsize>(blob.size() / 2));
      file.flush();
      EvictFailuresCounter().Increment();
      return Status::Internal("write to '" + tmp + "' failed");
    }
    file.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    file.flush();
    if (!file.good()) {
      EvictFailuresCounter().Increment();
      return Status::Internal("write to '" + tmp + "' failed");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    EvictFailuresCounter().Increment();
    return Status::Internal("rename '" + tmp + "' -> '" + path + "' failed");
  }
  SpillSecondsHistogram().Observe(timer.ElapsedSeconds());
  return Status::OK();
}

Status TieredStateStore::Rehydrate(std::unique_lock<std::mutex>* lock,
                                   std::size_t sensor) {
  Slot& slot = slots_[sensor];
  slot.busy = true;
  lock->unlock();
  WallTimer timer;
  Result<core::SensorEngine> engine = [&]() -> Result<core::SensorEngine> {
    SMILER_ASSIGN_OR_RETURN(core::EngineSnapshot snap,
                            ReadSegment(sensor, /*inject_fault=*/true));
    return core::SensorEngine::Restore(device_, snap);
  }();
  std::size_t bytes = 0;
  if (engine.ok()) {
    bytes = EngineFootprintBytes(*engine);
    // The segment is stale the moment the engine observes again; drop it
    // so a later eviction can never resurrect old state.
    std::remove(SegmentPath(sensor).c_str());
    RehydrateSecondsHistogram().Observe(timer.ElapsedSeconds());
  }
  Acquire(lock);
  slot.busy = false;
  busy_cv_.notify_all();
  SMILER_RETURN_NOT_OK(engine.status());
  SMILER_RETURN_NOT_OK(manager_->Install(sensor, std::move(*engine)));
  slot.resident = true;
  slot.has_segment = false;
  slot.bytes = bytes;
  resident_bytes_ += bytes;
  RehydrationsCounter().Increment();
  PublishGaugesLocked();
  return Status::OK();
}

Result<core::EngineSnapshot> TieredStateStore::ReadSegment(
    std::size_t sensor, bool inject_fault) const {
  const std::string path = SegmentPath(sensor);
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound("cannot open spill segment '" + path + "'");
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::Internal("cannot stat spill segment '" + path + "'");
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return Status::InvalidArgument("spill segment '" + path + "' is empty");
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    return Status::Internal("cannot mmap spill segment '" + path + "'");
  }
  std::size_t parse_size = size;
  if (inject_fault && SMILER_FAULT_TRIGGERED("store.rehydrate_read_short")) {
    // Short read: the parser must turn the truncation into a Status (the
    // Pin fails, the cold state stays intact, the next batch retries) —
    // never an OK result carrying a partial engine.
    parse_size = size / 2;
  }
  auto parsed = core::ParseSnapshotBlob(static_cast<const char*>(map),
                                        parse_size, path);
  ::munmap(map, size);
  SMILER_RETURN_NOT_OK(parsed.status());
  if (parsed->size() != 1) {
    return Status::InvalidArgument("spill segment for sensor " +
                                   std::to_string(sensor) +
                                   " does not hold exactly one engine");
  }
  return std::move((*parsed)[0]);
}

Status TieredStateStore::EnforceBudget() {
  std::vector<core::SensorEngine> dropped;  // outlives the lock below
  std::unique_lock<std::mutex> lock = Lock();
  SMILER_RETURN_NOT_OK(env_status_);
  if (manager_ == nullptr) {
    return Status::FailedPrecondition("store is not bound to a fleet");
  }
  Status first_error = Status::OK();
  // Clock sweep with second chance: a recently-pinned slot gets its ref
  // bit cleared on the first pass and is only evicted when seen again.
  // Two full revolutions bound the scan; a failed spill marks the slot
  // referenced so the sweep moves on instead of retrying it forever.
  // Bytes already being spilled (here or by another caller) count as
  // gone, and busy slots are skipped.
  std::size_t scanned = 0;
  const std::size_t scan_limit = 2 * slots_.size();
  std::vector<std::size_t> victims;
  for (;;) {
    victims.clear();
    while (resident_bytes_ - evicting_bytes_ > budget_ &&
           scanned < scan_limit) {
      Slot& slot = slots_[clock_hand_];
      const std::size_t victim = clock_hand_;
      clock_hand_ = (clock_hand_ + 1) % slots_.size();
      ++scanned;
      if (!slot.resident || slot.pins > 0 || slot.busy) continue;
      if (slot.ref) {
        slot.ref = false;
        continue;
      }
      slot.busy = true;
      evicting_bytes_ += slot.bytes;
      victims.push_back(victim);
    }
    if (victims.empty()) break;
    const std::vector<Status> written = Spill(&lock, victims, &dropped);
    for (std::size_t i = 0; i < victims.size(); ++i) {
      if (written[i].ok()) continue;
      if (first_error.ok()) first_error = written[i];
      slots_[victims[i]].ref = true;
    }
  }
  return first_error;
}

Result<core::EngineSnapshot> TieredStateStore::StableSnapshot(
    std::size_t sensor) {
  std::unique_lock<std::mutex> lock = Lock();
  SMILER_RETURN_NOT_OK(CheckUsableLocked(sensor));
  Slot& slot = slots_[sensor];
  busy_cv_.wait(lock, [&slot] { return !slot.busy; });
  if (slot.pins > 0) {
    return Status::FailedPrecondition("sensor is pinned");
  }
  const bool resident = slot.resident;
  slot.busy = true;
  lock.unlock();
  // Snapshot barriers read the cold tier without the rehydrate fault
  // point: segments are only ever published complete (a torn spill never
  // renames), so a checkpoint of a partly-cold fleet stays dependable
  // even mid fault-storm.
  Result<core::EngineSnapshot> snap =
      resident ? Result<core::EngineSnapshot>(
                     manager_->engine(sensor).Snapshot())
               : ReadSegment(sensor, /*inject_fault=*/false);
  Acquire(&lock);
  slot.busy = false;
  busy_cv_.notify_all();
  return snap;
}

bool TieredStateStore::resident(std::size_t sensor) const {
  std::unique_lock<std::mutex> lock = Lock();
  return sensor < slots_.size() && slots_[sensor].resident;
}

std::size_t TieredStateStore::resident_bytes() const {
  std::unique_lock<std::mutex> lock = Lock();
  return resident_bytes_;
}

std::size_t TieredStateStore::num_sensors() const {
  std::unique_lock<std::mutex> lock = Lock();
  return slots_.size();
}

std::vector<TieredStateStore::SlotInfo> TieredStateStore::Inspect(
    std::size_t* resident_bytes) const {
  std::unique_lock<std::mutex> lock = Lock();
  if (resident_bytes != nullptr) *resident_bytes = resident_bytes_;
  std::vector<SlotInfo> out(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    out[i].resident = slots_[i].resident;
    out[i].engine_present = manager_ != nullptr && manager_->resident(i);
    out[i].pins = slots_[i].pins;
    out[i].bytes = slots_[i].bytes;
    out[i].has_segment = slots_[i].has_segment;
  }
  return out;
}

}  // namespace store
}  // namespace smiler
