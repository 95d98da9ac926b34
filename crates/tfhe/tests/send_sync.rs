//! C-SEND-SYNC for the TFHE types.

use ufc_tfhe::{LweCiphertext, LweKsk, RgswCiphertext, RlweCiphertext, TfheContext, TfheKeys};

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn public_types_are_send_sync() {
    assert_send_sync::<TfheContext>();
    assert_send_sync::<TfheKeys>();
    // Batch PBS shares one key set, key-switching key included, across
    // worker threads.
    assert_send_sync::<LweKsk>();
    assert_send_sync::<LweCiphertext>();
    assert_send_sync::<RlweCiphertext>();
    assert_send_sync::<RgswCiphertext>();
}
