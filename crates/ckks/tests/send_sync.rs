//! C-SEND-SYNC: the evaluator and key material must be shareable
//! across threads (the batch comparison runner relies on it).

use ufc_ckks::{CkksContext, Evaluator, KeySet, SecretKey};

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn public_types_are_send_sync() {
    assert_send_sync::<CkksContext>();
    assert_send_sync::<Evaluator>();
    assert_send_sync::<SecretKey>();
    assert_send_sync::<KeySet>();
    assert_send_sync::<ufc_ckks::Ciphertext>();
    assert_send_sync::<ufc_math::plane::RnsPlane>();
}
