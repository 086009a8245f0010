//! `shutdown::install` catches SIGTERM: the test process sends itself one
//! with `kill -TERM <pid>` and the flag rises. A binary of its own, since
//! the signal reaches the whole process and no other test may share it.

use bgp_serve::shutdown;
use std::process::Command;
use std::time::{Duration, Instant};

#[test]
fn sigterm_sets_the_shutdown_flag() {
    shutdown::install();
    assert!(!shutdown::requested());
    let status = Command::new("kill")
        .args(["-TERM", &std::process::id().to_string()])
        .status()
        .expect("run kill");
    assert!(status.success(), "kill exited {status}");
    let deadline = Instant::now() + Duration::from_secs(10);
    while !shutdown::requested() {
        assert!(Instant::now() < deadline, "SIGTERM never set the flag");
        std::thread::sleep(Duration::from_millis(1));
    }
}
