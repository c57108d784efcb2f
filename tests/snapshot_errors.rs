//! Error paths of the snapshot codec at the file level: damaged frames
//! must surface typed [`SnapshotError`]s — never panics, never huge
//! allocations, never a partially-applied restore that claims success.
//!
//! [`SnapshotError`]: xt_snapshot::SnapshotError

use xt_asm::{Asm, Program};
use xt_core::{CoreConfig, OooSession};
use xt_isa::reg::Gpr;
use xt_snapshot::SnapshotError;

const MAX_INSTS: u64 = 100_000;

fn prog() -> Program {
    let mut a = Asm::new();
    a.li(Gpr::A0, 200);
    let top = a.here();
    a.addi(Gpr::A0, Gpr::A0, -1);
    a.bnez(Gpr::A0, top);
    a.li(Gpr::A0, 7);
    a.halt();
    a.finish().unwrap()
}

fn session(cfg: CoreConfig) -> OooSession {
    OooSession::new(&prog(), &cfg, cfg.mem, MAX_INSTS)
}

fn frame() -> Vec<u8> {
    let mut s = session(CoreConfig::xt910());
    s.run_insts(50);
    s.save()
}

fn restore(bytes: &[u8]) -> Result<(), SnapshotError> {
    let mut s = session(CoreConfig::xt910());
    s.restore(bytes)
}

#[test]
fn truncated_frames_report_truncated() {
    let good = frame();
    // every prefix shorter than the header, plus a cut mid-payload and
    // a cut inside the trailing checksum
    for cut in [0usize, 1, 7, 14, 22, good.len() / 2, good.len() - 1] {
        match restore(&good[..cut]) {
            Err(SnapshotError::Truncated { need, have }) => {
                assert_eq!(have, cut);
                assert!(need > have, "need {need} must exceed have {have}");
            }
            other => panic!("prefix of {cut} bytes: expected Truncated, got {other:?}"),
        }
    }
}

#[test]
fn wrong_magic_reports_bad_magic() {
    let mut bad = frame();
    bad[0] = b'Z';
    assert!(matches!(
        restore(&bad),
        Err(SnapshotError::BadMagic { found }) if found[0] == b'Z'
    ));
}

#[test]
fn wrong_version_reports_bad_version() {
    let mut bad = frame();
    let bumped = xt_snapshot::VERSION + 1;
    bad[4..6].copy_from_slice(&bumped.to_le_bytes());
    assert!(matches!(
        restore(&bad),
        Err(SnapshotError::BadVersion { found, expect })
            if found == bumped && expect == xt_snapshot::VERSION
    ));
}

#[test]
fn wrong_kind_is_rejected() {
    // a KIND_CORE frame offered where the payload says otherwise
    let mut bad = frame();
    bad[6] = xt_snapshot::KIND_CLUSTER;
    assert!(matches!(restore(&bad), Err(SnapshotError::Corrupt { .. })));
}

#[test]
fn flipped_payload_byte_fails_the_checksum() {
    let mut bad = frame();
    let mid = 15 + (bad.len() - 23) / 2;
    bad[mid] ^= 0xFF;
    assert!(matches!(restore(&bad), Err(SnapshotError::Corrupt { .. })));
}

/// A syntactically valid frame whose payload claims an absurd element
/// count (the classic corrupted-page-count file): restore must fail
/// with a typed error before attempting the allocation.
#[test]
fn corrupted_page_count_fails_without_allocating() {
    let mut e = xt_snapshot::Enc::new();
    // TraceSource's payload begins with the emulator; lie about a
    // gigantic collection right away
    e.u64(u64::MAX);
    let bogus = xt_snapshot::seal(xt_snapshot::KIND_CORE, e.bytes());
    match restore(&bogus) {
        Err(
            SnapshotError::Truncated { .. }
            | SnapshotError::Corrupt { .. }
            | SnapshotError::Mismatch { .. },
        ) => {}
        other => panic!("bogus count: expected a typed error, got {other:?}"),
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let good = frame();
    // extend the *payload* with an extra byte and re-seal so the
    // header and checksum are self-consistent — only the layout check
    // can catch it
    let payload = xt_snapshot::open(&good, xt_snapshot::KIND_CORE).unwrap();
    let mut longer = payload.to_vec();
    longer.push(0);
    let resealed = xt_snapshot::seal(xt_snapshot::KIND_CORE, &longer);
    assert!(matches!(
        restore(&resealed),
        Err(SnapshotError::TrailingBytes { extra: 1 })
    ));
}

#[test]
fn empty_and_tiny_inputs_never_panic() {
    for bytes in [&[][..], &[0x58][..], b"XTSN", b"XTSN\x01\x00\x01"] {
        assert!(restore(bytes).is_err(), "{} bytes must error", bytes.len());
    }
}

/// A frame from a differently-configured machine is refused with
/// `Mismatch`, leaving no doubt the restore did not partially apply.
#[test]
fn cross_config_restore_reports_mismatch() {
    let snap = frame();
    let mut other = session(CoreConfig::a73_like());
    assert!(matches!(
        other.restore(&snap),
        Err(SnapshotError::Mismatch { .. })
    ));
}
