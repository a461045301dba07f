//! `fedbiad_nn::softmax::softmax` against its executable specification
//! (`support/softmax_spec.rs`, the one-element-at-a-time loop over the
//! scalar `math::exp`): the same bits, NaN encodings included.

use fedbiad_nn::softmax::softmax;

#[path = "support/softmax_spec.rs"]
mod spec;

#[test]
fn softmax_is_the_one_element_loop_bit_for_bit() {
    let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    // Ordinary logits, gaps that leave exp's table path (> 88) and
    // underflow (> 104), and non-finite entries in every position.
    let logit = |i: usize, spread: f32| ((i * 37 + 11) % 101) as f32 / 100.0 * spread - 1.5;
    for len in (0..=17).chain([400]) {
        for spread in [3.0, 60.0, 250.0] {
            let base: Vec<f32> = (0..len).map(|i| logit(i, spread)).collect();
            let mut cases = vec![base.clone()];
            for special in [f32::NEG_INFINITY, f32::INFINITY, f32::NAN] {
                for at in 0..len.min(9) {
                    let mut xs = base.clone();
                    xs[at] = special;
                    cases.push(xs);
                }
            }
            cases.push(vec![f32::NEG_INFINITY; len]);
            for xs in cases {
                let (mut got, mut want) = (xs.clone(), xs.clone());
                softmax(&mut got);
                spec::softmax(&mut want);
                assert_eq!(bits(&got), bits(&want), "{xs:?}");
            }
        }
    }
}
