//! C-SEND-SYNC for the TFHE types.

use ufc_tfhe::{LweCiphertext, RgswCiphertext, RlweCiphertext, TfheContext, TfheKeys};

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn public_types_are_send_sync() {
    assert_send_sync::<TfheContext>();
    assert_send_sync::<TfheKeys>();
    assert_send_sync::<LweCiphertext>();
    assert_send_sync::<RlweCiphertext>();
    assert_send_sync::<RgswCiphertext>();
}
