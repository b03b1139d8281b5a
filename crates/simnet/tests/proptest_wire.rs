//! Fuzz-style property tests for the wire codec: decoding must be total
//! (never panic), encode/decode must round-trip exactly, and a rejected
//! frame costs no allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bcc_metric::NodeId;
use bcc_simnet::Message;
use proptest::prelude::*;

/// The system allocator, counting the allocations made on each thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn rejected_frames_allocate_nothing() {
    let mut frames: Vec<Vec<u8>> = vec![
        vec![],
        vec![2, 1, 0],
        // Bad tag, and a bad tag with a length it cannot hold.
        vec![99, 0, 0, 0, 0],
        vec![99, 255, 255, 255, 255],
        // Length prefixes larger than the bytes left.
        vec![1, 255, 255, 255, 255, 7, 0, 0, 0],
        vec![2, 2, 0, 0, 0, 7, 0, 0, 0, 8, 0, 0],
    ];
    let good = Message::CrtRow {
        sizes: vec![5, 6, 7],
    }
    .encode();
    frames.extend((0..good.len()).map(|cut| good[..cut].to_vec()));
    for frame in &frames {
        let mut decoded = Some(None);
        assert_eq!(
            allocations(|| decoded = Some(Message::decode(frame))),
            0,
            "{frame:?}"
        );
        assert_eq!(decoded, Some(None), "{frame:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decode_never_panics_on_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Whatever the bytes, decode returns Some or None — never panics.
        let _ = Message::decode(&data);
    }

    #[test]
    fn node_info_roundtrips(ids in proptest::collection::vec(0u32..1_000_000, 0..64)) {
        let msg = Message::NodeInfo {
            nodes: ids.iter().map(|&i| NodeId::new(i as usize)).collect(),
        };
        let encoded = msg.encode();
        prop_assert_eq!(encoded.len(), msg.wire_len());
        prop_assert_eq!(Message::decode(&encoded), Some(msg));
    }

    #[test]
    fn crt_row_roundtrips(sizes in proptest::collection::vec(any::<u32>(), 0..64)) {
        let msg = Message::CrtRow { sizes };
        let encoded = msg.encode();
        prop_assert_eq!(encoded.len(), msg.wire_len());
        prop_assert_eq!(Message::decode(&encoded), Some(msg));
    }

    #[test]
    fn truncation_is_detected(ids in proptest::collection::vec(0u32..1000, 1..32), cut in 1usize..16) {
        let msg = Message::NodeInfo {
            nodes: ids.iter().map(|&i| NodeId::new(i as usize)).collect(),
        };
        let encoded = msg.encode();
        let cut = cut.min(encoded.len());
        prop_assert_eq!(Message::decode(&encoded[..encoded.len() - cut]), None);
    }

    #[test]
    fn trailing_garbage_tolerated_or_rejected_consistently(
        sizes in proptest::collection::vec(any::<u32>(), 0..16),
        garbage in proptest::collection::vec(any::<u8>(), 1..32),
    ) {
        // Extra bytes after a well-formed frame: the codec reads exactly
        // the declared length, so decoding still yields the same message.
        let msg = Message::CrtRow { sizes };
        let mut raw = msg.encode();
        raw.extend_from_slice(&garbage);
        prop_assert_eq!(Message::decode(&raw), Some(msg));
    }
}
