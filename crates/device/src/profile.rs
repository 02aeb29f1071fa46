//! Device hardware profiles.

use flux_net::{WifiAdapter, WifiStandard};
use flux_simcore::ByteSize;
use std::fmt;

/// The devices used in the paper's evaluation, plus the Nexus 5 mentioned
/// as the 802.11ac future.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceModel {
    /// LG Google Nexus 4 phone.
    Nexus4,
    /// ASUS Google Nexus 7, 2012 model.
    Nexus7_2012,
    /// ASUS Google Nexus 7, 2013 model.
    Nexus7_2013,
    /// LG Google Nexus 5 phone (802.11ac).
    Nexus5,
}

impl fmt::Display for DeviceModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeviceModel::Nexus4 => "Nexus 4",
            DeviceModel::Nexus7_2012 => "Nexus 7",
            DeviceModel::Nexus7_2013 => "Nexus 7 (2013)",
            DeviceModel::Nexus5 => "Nexus 5",
        };
        write!(f, "{s}")
    }
}

/// GPU identity; determines which vendor OpenGL library is loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GpuSpec {
    /// Marketing name, e.g. `"Adreno 320"`.
    pub name: String,
    /// Vendor library the generic OpenGL library links,
    /// e.g. `"libGLES_adreno.so"`. Must be unloaded before migration and
    /// differs across devices (§3.3).
    pub vendor_lib: String,
}

/// Display geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScreenSpec {
    /// Width in pixels (portrait).
    pub width: u32,
    /// Height in pixels (portrait).
    pub height: u32,
    /// Density in dots per inch.
    pub dpi: u32,
}

impl ScreenSpec {
    /// Total pixels, which scales re-layout and redraw work after
    /// migration.
    pub fn pixels(&self) -> u64 {
        u64::from(self.width) * u64::from(self.height)
    }
}

/// Peripheral hardware a device does or does not have.
///
/// Adaptive Replay consults this: "Should the guest device not contain
/// hardware that was previously in use, e.g., GPS, the user is given the
/// option to allow communication with that device to continue to take place
/// over the network" (§3.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HardwareInventory {
    /// GPS receiver present.
    pub gps: bool,
    /// Vibration motor present (tablets often lack one).
    pub vibrator: bool,
    /// Rear/front camera count.
    pub cameras: u32,
    /// Sensor names exposed by the SensorService.
    pub sensors: Vec<String>,
}

impl HardwareInventory {
    fn phone() -> Self {
        Self {
            gps: true,
            vibrator: true,
            cameras: 2,
            sensors: [
                "accelerometer",
                "gyroscope",
                "magnetometer",
                "light",
                "proximity",
            ]
            .map(str::to_owned)
            .to_vec(),
        }
    }

    fn tablet() -> Self {
        Self {
            gps: true,
            vibrator: false,
            cameras: 1,
            sensors: ["accelerometer", "gyroscope", "magnetometer", "light"]
                .map(str::to_owned)
                .to_vec(),
        }
    }
}

/// A complete device profile.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Which device this is.
    pub model: DeviceModel,
    /// SoC marketing name.
    pub soc: String,
    /// GPU identity.
    pub gpu: GpuSpec,
    /// Installed RAM.
    pub ram: ByteSize,
    /// Display.
    pub screen: ScreenSpec,
    /// Linux kernel release the device runs.
    pub kernel_version: String,
    /// Android release (all KitKat in the evaluation).
    pub android_version: String,
    /// Android API level (19 for KitKat 4.4.2).
    pub api_level: u32,
    /// WiFi adapter.
    pub wifi: WifiAdapter,
    /// CPU speed relative to the Nexus 7 (2013) reference.
    pub cpu_scale: f64,
    /// Peripheral inventory.
    pub hardware: HardwareInventory,
}

impl DeviceProfile {
    /// The Nexus 4 used in the evaluation: Snapdragon S4 Pro APQ8064,
    /// Adreno 320, 2 GB RAM, 768×1280 IPS LCD.
    pub fn nexus4() -> Self {
        Self {
            model: DeviceModel::Nexus4,
            soc: "Qualcomm Snapdragon S4 Pro APQ8064".into(),
            gpu: GpuSpec {
                name: "Adreno 320".into(),
                vendor_lib: "libGLES_adreno.so".into(),
            },
            ram: ByteSize::from_mib(2048),
            screen: ScreenSpec {
                width: 768,
                height: 1280,
                dpi: 318,
            },
            kernel_version: "3.4".into(),
            android_version: "4.4.2".into(),
            api_level: 19,
            wifi: WifiAdapter {
                standard: WifiStandard::N,
                dual_band: true,
                link_mbps: 65.0,
            },
            cpu_scale: 0.95,
            hardware: HardwareInventory::phone(),
        }
    }

    /// The 2012 Nexus 7: NVIDIA Tegra 3 T30L, ULP GeForce, 1 GB RAM,
    /// 1280×800 IPS LCD, kernel 3.1, 2.4 GHz-only 802.11n.
    pub fn nexus7_2012() -> Self {
        Self {
            model: DeviceModel::Nexus7_2012,
            soc: "NVIDIA Tegra 3 T30L".into(),
            gpu: GpuSpec {
                name: "ULP GeForce".into(),
                vendor_lib: "libGLES_tegra.so".into(),
            },
            ram: ByteSize::from_mib(1024),
            screen: ScreenSpec {
                width: 800,
                height: 1280,
                dpi: 216,
            },
            kernel_version: "3.1".into(),
            android_version: "4.4.2".into(),
            api_level: 19,
            wifi: WifiAdapter {
                standard: WifiStandard::N,
                dual_band: false,
                link_mbps: 65.0,
            },
            cpu_scale: 0.62,
            hardware: HardwareInventory::tablet(),
        }
    }

    /// The 2013 Nexus 7: Snapdragon S4 Pro APQ8064, Adreno 320, 2 GB RAM,
    /// 1920×1200 IPS LCD, kernel 3.4. The cost-model reference device.
    pub fn nexus7_2013() -> Self {
        Self {
            model: DeviceModel::Nexus7_2013,
            soc: "Qualcomm Snapdragon S4 Pro APQ8064".into(),
            gpu: GpuSpec {
                name: "Adreno 320".into(),
                vendor_lib: "libGLES_adreno.so".into(),
            },
            ram: ByteSize::from_mib(2048),
            screen: ScreenSpec {
                width: 1200,
                height: 1920,
                dpi: 323,
            },
            kernel_version: "3.4".into(),
            android_version: "4.4.2".into(),
            api_level: 19,
            wifi: WifiAdapter {
                standard: WifiStandard::N,
                dual_band: true,
                link_mbps: 65.0,
            },
            cpu_scale: 1.0,
            hardware: HardwareInventory::tablet(),
        }
    }

    /// The Nexus 5 the paper cites for 802.11ac headroom (§4).
    pub fn nexus5() -> Self {
        Self {
            model: DeviceModel::Nexus5,
            soc: "Qualcomm Snapdragon 800".into(),
            gpu: GpuSpec {
                name: "Adreno 330".into(),
                vendor_lib: "libGLES_adreno.so".into(),
            },
            ram: ByteSize::from_mib(2048),
            screen: ScreenSpec {
                width: 1080,
                height: 1920,
                dpi: 445,
            },
            kernel_version: "3.4".into(),
            android_version: "4.4.2".into(),
            api_level: 19,
            wifi: WifiAdapter {
                standard: WifiStandard::Ac,
                dual_band: true,
                link_mbps: 433.0,
            },
            cpu_scale: 1.3,
            hardware: HardwareInventory::phone(),
        }
    }

    /// Profile for a model.
    pub fn of(model: DeviceModel) -> Self {
        match model {
            DeviceModel::Nexus4 => Self::nexus4(),
            DeviceModel::Nexus7_2012 => Self::nexus7_2012(),
            DeviceModel::Nexus7_2013 => Self::nexus7_2013(),
            DeviceModel::Nexus5 => Self::nexus5(),
        }
    }

    /// Whether both devices run the same GPU vendor stack (if not, the
    /// vendor library is swapped on migration).
    pub fn same_gpu_vendor(&self, other: &DeviceProfile) -> bool {
        self.gpu.vendor_lib == other.gpu.vendor_lib
    }

    /// The four device pairs evaluated in Figures 12–15, in the paper's
    /// order: (1) N7'13→N7'13, (2) N4→N7'13, (3) N7→N7'13, (4) N7→N4.
    pub fn evaluation_pairs() -> Vec<(DeviceModel, DeviceModel)> {
        vec![
            (DeviceModel::Nexus7_2013, DeviceModel::Nexus7_2013),
            (DeviceModel::Nexus4, DeviceModel::Nexus7_2013),
            (DeviceModel::Nexus7_2012, DeviceModel::Nexus7_2013),
            (DeviceModel::Nexus7_2012, DeviceModel::Nexus4),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_match_paper_hardware() {
        let n4 = DeviceProfile::nexus4();
        assert_eq!(n4.ram, ByteSize::from_mib(2048));
        assert_eq!((n4.screen.width, n4.screen.height), (768, 1280));
        let n7 = DeviceProfile::nexus7_2012();
        assert_eq!(n7.kernel_version, "3.1");
        assert!(!n7.wifi.dual_band);
        let n7_13 = DeviceProfile::nexus7_2013();
        assert_eq!(n7_13.kernel_version, "3.4");
        assert_eq!(n7_13.cpu_scale, 1.0);
    }

    #[test]
    fn gpu_vendor_differs_between_tegra_and_adreno() {
        let n7 = DeviceProfile::nexus7_2012();
        let n7_13 = DeviceProfile::nexus7_2013();
        let n4 = DeviceProfile::nexus4();
        assert!(!n7.same_gpu_vendor(&n7_13));
        assert!(n4.same_gpu_vendor(&n7_13));
    }

    #[test]
    fn evaluation_pairs_match_section_4() {
        let pairs = DeviceProfile::evaluation_pairs();
        assert_eq!(pairs.len(), 4);
        assert_eq!(
            pairs[0],
            (DeviceModel::Nexus7_2013, DeviceModel::Nexus7_2013)
        );
        assert_eq!(pairs[3], (DeviceModel::Nexus7_2012, DeviceModel::Nexus4));
    }

    #[test]
    fn model_display_matches_paper_labels() {
        assert_eq!(DeviceModel::Nexus7_2012.to_string(), "Nexus 7");
        assert_eq!(DeviceModel::Nexus7_2013.to_string(), "Nexus 7 (2013)");
    }
}
