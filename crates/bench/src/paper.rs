//! The paper's published numbers: Table I (the seven dropout-family
//! methods) and Table II (the seven sketched ones), real datasets at
//! paper scale. The two tables use disjoint method names, so one lookup
//! by (workload, method name) serves both.

use crate::output::PaperRow;
use fedbiad_fl::workload::Workload;

/// Published rows for `w`: (method display name, acc %, upload size
/// label, save ratio), Table I then Table II.
pub fn published(w: Workload) -> &'static [PaperRow] {
    match w {
        Workload::MnistLike => &[
            ("FedAvg", 95.06, "531KB", 1.0),
            ("FedDrop", 95.03, "424KB", 1.25),
            ("AFD", 94.49, "424KB", 1.25),
            ("FedMP", 95.09, "477KB", 1.10),
            ("FjORD", 94.93, "437KB", 1.21),
            ("HeteroFL", 94.98, "432KB", 1.23),
            ("FedBIAD", 95.20, "424KB", 1.25),
            ("FedPAQ", 94.90, "129KB", 4.0),
            ("SignSGD", 92.04, "16KB", 33.0),
            ("STC", 90.56, "3KB", 177.0),
            ("DGC", 94.84, "3KB", 177.0),
            ("AFD+DGC", 94.39, "2KB", 265.0),
            ("Fjord+DGC", 94.93, "2KB", 265.0),
            ("FedBIAD+DGC", 95.22, "2KB", 265.0),
        ],
        Workload::FmnistLike => &[
            ("FedAvg", 81.18, "1.1MB", 1.0),
            ("FedDrop", 81.12, "530KB", 2.0),
            ("AFD", 82.37, "530KB", 2.0),
            ("FedMP", 82.40, "862KB", 1.3),
            ("FjORD", 82.64, "718KB", 1.5),
            ("HeteroFL", 82.68, "685KB", 1.6),
            ("FedBIAD", 83.59, "530KB", 2.0),
            ("FedPAQ", 78.64, "258KB", 4.0),
            ("SignSGD", 76.57, "33KB", 34.0),
            ("STC", 81.13, "6KB", 188.0),
            ("DGC", 80.64, "4KB", 281.0),
            ("AFD+DGC", 81.96, "3KB", 375.0),
            ("Fjord+DGC", 82.16, "3KB", 375.0),
            ("FedBIAD+DGC", 82.96, "3KB", 375.0),
        ],
        Workload::PtbLike => &[
            ("FedAvg", 28.54, "29.8MB", 1.0),
            ("FedDrop", 27.81, "23.8MB", 1.25),
            ("AFD", 28.67, "22.4MB", 1.3),
            ("FedMP", 28.76, "22.7MB", 1.3),
            ("FjORD", 27.88, "21.4MB", 1.4),
            ("HeteroFL", 26.80, "20.4MB", 1.5),
            ("FedBIAD", 29.85, "16.4MB", 2.0),
            ("FedPAQ", 28.60, "7.1MB", 4.0),
            ("SignSGD", 23.76, "908KB", 33.0),
            ("STC", 24.42, "148KB", 206.0),
            ("DGC", 28.10, "95KB", 321.0),
            ("AFD+DGC", 27.74, "71KB", 429.0),
            ("Fjord+DGC", 27.50, "71KB", 429.0),
            ("FedBIAD+DGC", 28.77, "53KB", 575.0),
        ],
        Workload::WikiText2Like => &[
            ("FedAvg", 31.86, "75.3MB", 1.0),
            ("FedDrop", 32.02, "57.9MB", 1.3),
            ("AFD", 31.20, "56.5MB", 1.3),
            ("FedMP", 32.53, "59.1MB", 1.3),
            ("FjORD", 31.16, "54.0MB", 1.4),
            ("HeteroFL", 31.84, "52.9MB", 1.4),
            ("FedBIAD", 33.16, "39.1MB", 2.0),
            ("FedPAQ", 32.04, "18.8MB", 4.0),
            ("SignSGD", 30.62, "2.4MB", 32.0),
            ("STC", 28.92, "374KB", 206.0),
            ("DGC", 31.58, "215KB", 359.0),
            ("AFD+DGC", 31.24, "180KB", 428.0),
            ("Fjord+DGC", 30.92, "179KB", 430.0),
            ("FedBIAD+DGC", 33.78, "126KB", 612.0),
        ],
        Workload::RedditLike => &[
            ("FedAvg", 31.68, "29.8MB", 1.0),
            ("FedDrop", 31.84, "24.1MB", 1.25),
            ("AFD", 32.26, "22.5MB", 1.3),
            ("FedMP", 31.06, "22.7MB", 1.3),
            ("FjORD", 31.35, "21.4MB", 1.4),
            ("HeteroFL", 31.24, "20.4MB", 1.5),
            ("FedBIAD", 33.93, "16.4MB", 2.0),
            ("FedPAQ", 32.36, "7.1MB", 4.0),
            ("SignSGD", 29.86, "960KB", 32.0),
            ("STC", 30.22, "148KB", 206.0),
            ("DGC", 31.23, "97KB", 314.0),
            ("AFD+DGC", 32.19, "88KB", 346.0),
            ("Fjord+DGC", 30.85, "86KB", 355.0),
            ("FedBIAD+DGC", 32.51, "52KB", 587.0),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedbiad_scenario::Method;

    #[test]
    fn every_workload_publishes_every_registry_method_once() {
        for w in Workload::all() {
            let names: Vec<&str> = published(w).iter().map(|row| row.0).collect();
            assert_eq!(names, Method::ALL.map(Method::name), "{}", w.name());
        }
    }
}
